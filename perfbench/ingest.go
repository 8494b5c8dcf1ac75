package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"tqp"
	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/stratum"
	"tqp/internal/value"
)

// The ingest-travel relation is a time series of HISTORY rows: chunk c holds
// rows whose periods lie inside [c·window, (c+1)·window). Set-up imports
// importChunks chunks, one store segment each; the run appends one
// appendRows-row chunk per append operation, each a new segment further
// along the time line. The per-segment period fences therefore let every
// travel read skip most segments.
const (
	historyName  = "HISTORY"
	window       = 1000
	maxPeriod    = 50
	importChunks = 8
	importRows   = 1024
	appendRows   = 256
	appendEvery  = 8 // one operation in eight appends
)

var historySchema = schema.MustNew(
	schema.Attr("Key", value.KindString),
	schema.Attr("Val", value.KindInt),
	schema.Attr(schema.T1, value.KindTime),
	schema.Attr(schema.T2, value.KindTime),
)

var historyInfo = algebra.BaseInfo{Distinct: true}

// travelReads are five time-travel shapes of similar cost (a few dozen rows
// each, one or two segments scanned). {a} {b} {t} are filled per operation
// from the seed; want filters the benchmark's own rows to the count the
// read must return. Shape 3 reads the most recent chunk, so appended rows
// are read back; the others read the imported history.
var travelReads = []struct {
	sql    string
	recent bool
	want   func(val int64) bool
}{
	{"SELECT Key, Val FROM HISTORY FOR PERIOD ({a}, {b})", false, nil},
	{"SELECT Key, Val FROM HISTORY FOR SYSTEM_TIME AS OF {t}", false, nil},
	{"SELECT Key FROM HISTORY FOR PERIOD ({a}, {b}) WHERE Val < 500", false, func(v int64) bool { return v < 500 }},
	{"SELECT Key, Val FROM HISTORY FOR PERIOD ({a}, {b})", true, nil},
	{"SELECT Key, T1, T2 FROM HISTORY FOR SYSTEM_TIME AS OF {t} WHERE Val >= 500", false, func(v int64) bool { return v >= 500 }},
}

// row is one generated HISTORY tuple, kept for the output checks.
type row struct {
	key    string
	val    int64
	t1, t2 int64
}

func (r row) values() []any { return []any{r.key, r.val, r.t1, r.t2} }

// chunk generates the rows of time-line chunk c from the seed.
func chunk(seed int64, c, n int) []row {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	out := make([]row, n)
	for i := range out {
		t1 := int64(c*window + rng.Intn(window-maxPeriod))
		out[i] = row{
			key: fmt.Sprintf("k%d_%d", c, i),
			val: int64(rng.Intn(1000)),
			t1:  t1,
			t2:  t1 + 1 + int64(rng.Intn(maxPeriod)),
		}
	}
	return out
}

func asRows(rs []row) [][]any {
	out := make([][]any, len(rs))
	for i, r := range rs {
		out[i] = r.values()
	}
	return out
}

var storeSeq atomic.Int64

type ingestBench struct {
	seed int64
	dir  string
	cat  *catalog.Catalog
	opt  *core.Optimizer
	rows []row // every row stored, in store order
	acc  layerAcc
}

func setupIngest(cfg config, t *tracer) (bench, error) {
	b := &ingestBench{
		seed: cfg.seed,
		dir:  filepath.Join(cfg.dir, fmt.Sprintf("store-%d-%d", os.Getpid(), storeSeq.Add(1))),
	}
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	for c := 0; c < importChunks; c++ {
		b.rows = append(b.rows, chunk(cfg.seed, c, importRows)...)
	}
	// Import: the first chunk seeds a fresh disk catalog, the rest append
	// as segments of their own.
	first, err := relation.FromRows(historySchema, asRows(b.rows[:importRows]))
	if err != nil {
		return nil, err
	}
	src := catalog.New()
	if err := src.Add(historyName, first, historyInfo); err != nil {
		return nil, err
	}
	imp, err := tqp.OpenDiskCatalog(b.dir, src)
	if err != nil {
		b.close()
		return nil, err
	}
	for c := 1; c < importChunks; c++ {
		if err := imp.AppendRows(historyName, asRows(b.rows[c*importRows:(c+1)*importRows])); err != nil {
			b.close()
			return nil, err
		}
	}
	// Cold open: what every later user of the store pays.
	d, _ := timed(t, "store.open", func() { b.cat, err = catalog.OpenDir(b.dir) })
	if err != nil {
		b.close()
		return nil, err
	}
	b.acc.open += d.wall
	b.acc.nOpen++
	b.opt = core.New(b.cat, core.WithEngine(engineSpec()), core.WithDBMSSeed(dbmsSeed))
	return b, nil
}

func (b *ingestBench) kind(i int) opKind {
	if i >= 0 && i%appendEvery == 0 {
		return opAppend
	}
	return opRead
}

// appended is the number of chunks the run has appended so far.
func (b *ingestBench) appended() int { return (len(b.rows) - importChunks*importRows) / appendRows }

func (b *ingestBench) do(i int, t *tracer) (cost, error) {
	if b.kind(i) == opAppend {
		c := importChunks + b.appended()
		rs := chunk(b.seed, c, appendRows)
		var err error
		d, _ := timed(t, "store.append", func() { err = b.cat.AppendRows(historyName, asRows(rs)) })
		if err != nil {
			return d, err
		}
		b.rows = append(b.rows, rs...)
		b.acc.appendDur += d.wall
		b.acc.nAppend++
		return d, nil
	}
	return b.read(i, t)
}

// read runs one travel read the way a library user does — Prepare, then
// ExecutePlan — and checks its row count against the generated rows.
func (b *ingestBench) read(i int, t *tracer) (cost, error) {
	r := i - i/appendEvery - 1 // reads before this one
	if i < 0 {
		r = -1 - i
	}
	shape := travelReads[r%len(travelReads)]
	rng := rand.New(rand.NewSource(b.seed*1_000_033 + int64(i)))
	lo, width := int64(0), int64(25)
	span := int64(importChunks * window)
	if shape.recent {
		c := importChunks - 1 + b.appended()
		lo, span, width = int64(c*window), window, 100
	}
	a := lo + rng.Int63n(span-width)
	qp := [2]int64{a, a + width}
	sql := strings.NewReplacer("{a}", fmt.Sprint(a), "{b}", fmt.Sprint(a+width), "{t}", fmt.Sprint(a)).Replace(shape.sql)
	if strings.Contains(shape.sql, "AS OF") {
		qp[1] = a + 1
	}

	var res *relation.Relation
	var tr *stratum.Trace
	var d cost
	var err error
	if t == nil {
		d, _ = timed(nil, "", func() {
			var prep *core.Prepared
			if prep, err = b.opt.Prepare(sql); err == nil {
				res, tr, err = b.opt.ExecutePlan(prep.Plan, engineSpec())
			}
		})
	} else {
		d, res, tr, err = b.traceRead(t, sql)
	}
	if err != nil {
		return d, err
	}
	if i >= 0 {
		b.acc.segScanned += tr.SegmentsScanned
		b.acc.segSkipped += tr.SegmentsSkipped
		b.acc.nTravel++
	}
	if tr.SegmentsSkipped == 0 {
		return d, fmt.Errorf("%q skipped no segment; the period index went unused", sql)
	}
	want := 0
	for _, rw := range b.rows {
		if rw.t1 < qp[1] && qp[0] < rw.t2 && (shape.want == nil || shape.want(rw.val)) {
			want++
		}
	}
	if res.Len() != want {
		return d, fmt.Errorf("%q returned %d rows, want %d", sql, res.Len(), want)
	}
	return d, nil
}

// traceRead is read's traced form: the Prepare and the stratum execution
// are the operation; the parse and the catalog's travel scans are replayed
// beside it so the planner's and the period index's shares show.
func (b *ingestBench) traceRead(t *tracer, sql string) (cost, *relation.Relation, *stratum.Trace, error) {
	a := &b.acc
	prep, dp, err := a.tracePrepare(t, b.opt, sql)
	if err != nil {
		return dp, nil, nil, err
	}
	res, tr, de, err := a.traceExecute(t, b.cat, prep.Plan)
	d := dp.plus(de)
	if err != nil {
		return d, nil, nil, err
	}
	algebra.Walk(prep.Plan, func(n algebra.Node, _ algebra.Path) bool {
		if n.Op() == algebra.OpRel {
			ds, _ := timed(t, "catalog.scan", func() { _, _, _, err = b.cat.ResolveScan(n.Label()) })
			a.scan += ds.wall
			a.nScan++
		}
		return err == nil
	})
	return d, res, tr, err
}

func (b *ingestBench) finish(n int, t *tracer, m map[string]float64) error {
	written := b.cat.Store().Meters().BytesWritten
	var reopened *catalog.Catalog
	var err error
	d, _ := timed(t, "store.open", func() { reopened, err = catalog.OpenDir(b.dir) })
	if err != nil {
		return err
	}
	b.acc.open += d.wall
	b.acc.nOpen++
	got, err := reopened.Resolve(historyName)
	if err != nil {
		return err
	}
	want, err := relation.FromRows(historySchema, asRows(b.rows))
	if err != nil {
		return err
	}
	if err := sameList("cold reopen after the run", want, got); err != nil {
		return err
	}
	segs, err := reopened.Store().Segments(historyName)
	if err != nil {
		return err
	}
	if len(segs) != importChunks+b.appended() {
		return fmt.Errorf("store holds %d segments, want %d", len(segs), importChunks+b.appended())
	}
	var disk int64
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		disk += info.Size()
	}
	b.acc.segments = int64(len(segs))
	b.acc.bytesWritten = written
	b.acc.diskBytes, b.acc.storedRows = disk, int64(got.Len())
	b.acc.fill(m)
	return nil
}

func (b *ingestBench) close() { os.RemoveAll(b.dir) }
