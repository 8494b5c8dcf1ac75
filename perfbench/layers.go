package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/obs"
	"tqp/internal/relation"
	"tqp/internal/server"
	"tqp/internal/stratum"
	"tqp/internal/tsql"
)

// dbmsSeed is the simulated DBMS's order seed on every server, coordinator
// and replay, so that their result lists agree bit for bit.
const dbmsSeed = 1

// engineSpec is the physical engine a default server session runs.
func engineSpec() eval.EngineSpec { return exec.NewSpec(exec.Config{}) }

// rotation is an equal-weight rotation over k shapes: operation i runs
// shape at(i). Each block of k operations visits every shape once, in an
// order shuffled per block from the seed. Warm-up operations (i < 0) walk
// the shapes in order.
type rotation struct {
	k     int
	rng   *rand.Rand
	order []int // shapes of the blocks drawn so far, block after block
}

func newRotation(k int, seed int64) *rotation {
	return &rotation{k: k, rng: rand.New(rand.NewSource(seed))}
}

func (r *rotation) at(i int) int {
	if i < 0 {
		return (-1 - i) % r.k
	}
	for len(r.order) <= i {
		r.order = append(r.order, r.rng.Perm(r.k)...)
	}
	return r.order[i]
}

// layerAcc accumulates per-layer figures over a traced pass. Times are
// sums; counts are sums; n* fields count the calls they are averaged over.
type layerAcc struct {
	parse, prepare           time.Duration
	nParse, nPrepare         int
	plans, rules, rejections int
	allocBytes               uint64

	records                 int
	hits, lookups           int
	queue, plan, exe, strm  float64 // ms, from the server's query log
	client                  time.Duration
	nClient                 int
	wireBytes, nWire        int
	execute                 time.Duration
	nExecute                int
	transferred, statements int
	dbmsUnits, stratumUnits float64
	evalWall                time.Duration
	rowsOut, batches        int64

	coordQuery, frontend time.Duration
	nCoord               int
	split                time.Duration
	nSplit               int
	fragments, shards    int

	open                   time.Duration
	nOpen                  int
	appendDur              time.Duration
	nAppend                int
	scan                   time.Duration
	nScan                  int
	segScanned, segSkipped int
	nTravel                int
	segments, bytesWritten int64
	diskBytes, storedRows  int64
}

func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// fill writes the accumulated figures as per-layer metrics.
func (a *layerAcc) fill(m map[string]float64) {
	m["tsql.parse_us"] = per(float64(a.parse)/float64(time.Microsecond), a.nParse)
	prep := per(ms(a.prepare), a.nPrepare) - per(ms(a.parse), a.nParse)
	if a.nPrepare == 0 || prep < 0 {
		prep = 0
	}
	m["core.prepare_ms"] = prep
	m["core.plans_enumerated"] = per(float64(a.plans), a.nPrepare)
	m["core.rule_applications"] = per(float64(a.rules), a.nPrepare)
	m["core.guard_rejections"] = per(float64(a.rejections), a.nPrepare)
	m["core.alloc_mb_per_prepare"] = per(float64(a.allocBytes)/(1<<20), a.nPrepare)
	m["server.cache_hit_ratio"] = per(float64(a.hits), a.lookups)
	m["server.queue_ms"] = per(a.queue, a.records)
	m["server.plan_ms"] = per(a.plan, a.records)
	m["server.exec_ms"] = per(a.exe, a.records)
	m["server.stream_ms"] = per(a.strm, a.records)
	m["wire.client_ms"] = per(ms(a.client), a.nClient)
	m["wire.bytes_per_query"] = per(float64(a.wireBytes), a.nWire)
	m["stratum.execute_ms"] = per(ms(a.execute), a.nExecute)
	m["stratum.tuples_transferred"] = per(float64(a.transferred), a.nExecute)
	m["stratum.dbms_units"] = per(a.dbmsUnits, a.nExecute)
	m["stratum.stratum_units"] = per(a.stratumUnits, a.nExecute)
	m["dbms.statements"] = per(float64(a.statements), a.nExecute)
	m["exec.eval_ms"] = per(ms(a.evalWall), a.nExecute)
	m["exec.rows_out"] = per(float64(a.rowsOut), a.nExecute)
	m["exec.batches"] = per(float64(a.batches), a.nExecute)
	m["coord.query_ms"] = per(ms(a.coordQuery), a.nCoord)
	m["coord.frontend_ms"] = per(ms(a.frontend), a.nCoord)
	m["coord.split_ms"] = per(ms(a.split), a.nSplit)
	m["coord.fragments"] = per(float64(a.fragments), a.nCoord)
	m["coord.shards"] = per(float64(a.shards), a.nCoord)
	m["store.open_ms"] = per(ms(a.open), a.nOpen)
	m["store.append_ms"] = per(ms(a.appendDur), a.nAppend)
	m["store.segments"] = float64(a.segments)
	m["store.bytes_written"] = float64(a.bytesWritten)
	m["store.disk_bytes_per_row"] = per(float64(a.diskBytes), int(a.storedRows))
	m["catalog.scan_ms"] = per(ms(a.scan), a.nScan)
	m["catalog.segments_scanned"] = per(float64(a.segScanned), a.nTravel)
	m["catalog.segments_skipped"] = per(float64(a.segSkipped), a.nTravel)
}

// reference is a statement's expected result: the reference evaluator's
// run of the initial (unoptimized) plan, with the result type and ORDER BY
// list the ≡SQL check needs.
type reference struct {
	rt      equiv.ResultType
	orderBy relation.OrderSpec
	rel     *relation.Relation
}

func referenceOf(opt *core.Optimizer, sql string) (*reference, error) {
	q, err := tsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	initial, err := q.Plan(opt.Catalog())
	if err != nil {
		return nil, err
	}
	rel, err := opt.Reference(initial)
	if err != nil {
		return nil, err
	}
	return &reference{rt: q.ResultType(), orderBy: q.OrderBy(), rel: rel}, nil
}

// check reports a wrong result as an error: got must be ≡SQL to the
// reference (Definition 5.1).
func (r *reference) check(sql string, got *relation.Relation) error {
	ok, err := equiv.CheckSQL(r.rt, r.orderBy, r.rel, got)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("result of %q is not ≡SQL to the reference evaluator's (%d rows, want %d)", sql, got.Len(), r.rel.Len())
	}
	return nil
}

// sameList reports a result that is not bit-identical to want.
func sameList(what string, want, got *relation.Relation) error {
	if !want.EqualAsList(got) {
		return fmt.Errorf("%s: result list differs (%d rows, want %d)", what, got.Len(), want.Len())
	}
	return nil
}

// tracePrepare replays a statement's planning through the planner's public
// calls under spans: tsql.Parse, then Optimizer.Prepare (which parses again;
// core.prepare_ms is reported net of the parse). The enumeration counters
// come from an untraced OptimizeBeam of the same initial plan, since
// Prepare does not return its enum.Result.
func (a *layerAcc) tracePrepare(t *tracer, opt *core.Optimizer, sql string) (*core.Prepared, cost, error) {
	var q *tsql.Query
	var err error
	dp, _ := timed(t, "tsql.parse", func() { q, err = tsql.Parse(sql) })
	if err != nil {
		return nil, cost{}, err
	}
	var prep *core.Prepared
	before := readGo()
	d, _ := timed(t, "core.prepare", func() { prep, err = opt.Prepare(sql) })
	a.allocBytes += readGo().allocBytes - before.allocBytes
	if err != nil {
		return nil, d, err
	}
	a.parse += dp.wall
	a.nParse++
	a.prepare += d.wall
	a.nPrepare++
	initial, err := q.Plan(opt.Catalog())
	if err != nil {
		return nil, d, err
	}
	ps, err := opt.OptimizeBeam(initial, q.ResultType(), q.OrderBy())
	if err != nil {
		return nil, d, err
	}
	a.plans += prep.PlanCount
	for _, n := range ps.Enumeration.Applications {
		a.rules += n
	}
	for _, n := range ps.Enumeration.GuardRejections {
		a.rejections += n
	}
	return prep, d, nil
}

// traceExecute replays a plan through the stratum executor — the calls
// core.ExecutePlan makes — with a probe whose per-node samples become
// exec.eval child spans. TS nodes' samples cover DBMS regions, not engine
// evaluations, and are left out of exec.
func (a *layerAcc) traceExecute(t *tracer, cat *catalog.Catalog, plan algebra.Node) (*relation.Relation, *stratum.Trace, cost, error) {
	transfers := make(map[string]bool)
	algebra.Walk(plan, func(n algebra.Node, p algebra.Path) bool {
		if n.Op() == algebra.OpTransferS {
			transfers[p.String()] = true
		}
		return true
	})
	var samples []obs.RunSample
	x := stratum.NewWithEngine(cat, dbmsSeed, engineSpec())
	x.SetProbe(func(path string, s obs.RunSample) {
		if !transfers[path] {
			samples = append(samples, s)
		}
	})
	var res *relation.Relation
	var tr *stratum.Trace
	var err error
	d, si := timed(t, "stratum.execute", func() { res, tr, err = x.Execute(plan) })
	if err != nil {
		return nil, nil, d, err
	}
	var at time.Duration
	for _, s := range samples {
		t.child(si, "exec.eval", at, s.Wall)
		at += s.Wall
		a.evalWall += s.Wall
		a.rowsOut += s.Rows
		a.batches += s.Batches
	}
	a.execute += d.wall
	a.nExecute++
	a.transferred += tr.TuplesTransferred
	a.statements += len(tr.SQL)
	a.dbmsUnits += tr.DBMSUnits
	a.stratumUnits += tr.StratumUnits
	return res, tr, d, nil
}

// traceEncode replays the server's result encoding into memory: the bytes
// one query's answer puts on the wire.
func (a *layerAcc) traceEncode(t *tracer, res *relation.Relation) error {
	var buf bytes.Buffer
	var err error
	timed(t, "wire.encode", func() {
		err = server.StreamResult(&buf, res, 0, &server.Done{Tuples: res.Len()})
	})
	a.wireBytes += buf.Len()
	a.nWire++
	return err
}
