package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/obs"
	"tqp/internal/relation"
	"tqp/internal/server"
)

// paperWarm are seven statements over the Figure 1 catalog, served from the
// warm plan cache: the paper's running example, a DBMS-resident temporal
// join, and five conventional and temporal shapes that each run in well
// under a millisecond.
var paperWarm = []string{
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC",
	"VALIDTIME SELECT DISTINCT 1.EmpName FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName",
	"VALIDTIME SELECT Dept, COUNT(*) AS headcount FROM EMPLOYEE GROUP BY Dept",
	"SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'Sales' ORDER BY EmpName DESC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE ORDER BY EmpName ASC",
	"SELECT DISTINCT EmpName FROM EMPLOYEE UNION SELECT EmpName FROM PROJECT",
	"SELECT EmpName, COUNT(*) AS spells FROM EMPLOYEE GROUP BY EmpName ORDER BY EmpName",
}

// paperCold are five templates whose plan spaces are about equal (156–168
// enumerated plans each). Every {lit} is replaced by a literal unique to the
// operation, so no statement repeats and each one misses the plan cache.
// The literals match no row: the predicates keep every tuple, so results do
// not depend on them.
var paperCold = []string{
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' EXCEPT SELECT EmpName FROM PROJECT WHERE Prj <> 'P{lit}' ORDER BY EmpName ASC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' EXCEPT SELECT EmpName FROM PROJECT WHERE Prj <> 'P{lit}' ORDER BY EmpName DESC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' UNION SELECT EmpName FROM PROJECT WHERE Prj <> 'P{lit}' ORDER BY EmpName ASC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM PROJECT WHERE Prj <> 'P{lit}' EXCEPT SELECT EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' ORDER BY EmpName ASC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM PROJECT WHERE Prj <> 'P{lit}' UNION SELECT EmpName FROM EMPLOYEE ORDER BY EmpName ASC",
}

// memSink keeps the server's query-log records for the traced pass.
type memSink struct{ ch chan *obs.QueryRecord }

func (s *memSink) Emit(r *obs.QueryRecord) { s.ch <- r }

// next waits for the record of the query that just returned: the server
// emits it after writing the last frame, so it can trail the client.
func (s *memSink) next() (*obs.QueryRecord, error) {
	select {
	case r := <-s.ch:
		return r, nil
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("no query-log record from the server")
	}
}

// paperBench serves the Figure 1 catalog from one server to one client
// connection.
type paperBench struct {
	cold bool
	sql  func(i int) string
	rot  *rotation

	cat  *catalog.Catalog
	srv  *server.Server
	cl   *server.Client
	sink *memSink
	opt  *core.Optimizer // reference checks and traced replays

	refs     map[string]*reference
	prepared map[string]*core.Prepared
	stats0   server.CacheStats
	acc      layerAcc
}

func setupPaperWarm(cfg config, t *tracer) (bench, error) {
	b := &paperBench{rot: newRotation(len(paperWarm), cfg.seed)}
	b.sql = func(i int) string { return paperWarm[b.rot.at(i)] }
	if err := b.start(t); err != nil {
		return nil, err
	}
	// Filling the plan cache is part of set-up: a warm server is what
	// this workload's users query.
	for _, sql := range paperWarm {
		if _, _, err := b.cl.Query(context.Background(), sql); err != nil {
			b.close()
			return nil, err
		}
		if t != nil {
			if _, err := b.sink.next(); err != nil {
				b.close()
				return nil, err
			}
		}
	}
	return b, nil
}

func setupPaperCold(cfg config, t *tracer) (bench, error) {
	b := &paperBench{cold: true, rot: newRotation(len(paperCold), cfg.seed)}
	b.sql = func(i int) string {
		lit := fmt.Sprintf("%d_%d", cfg.seed, i)
		if i < 0 {
			lit = fmt.Sprintf("%d_w%d", cfg.seed, -i)
		}
		return strings.ReplaceAll(paperCold[b.rot.at(i)], "{lit}", lit)
	}
	if err := b.start(t); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *paperBench) start(t *tracer) error {
	b.cat = catalog.Paper()
	cfg := server.Config{Catalog: b.cat, Seed: dbmsSeed}
	if t != nil {
		b.sink = &memSink{ch: make(chan *obs.QueryRecord, 64)}
		cfg.QueryLog = obs.NewQueryLog(b.sink, 0)
	}
	srv, err := server.Start(cfg)
	if err != nil {
		return err
	}
	cl, err := server.Dial(context.Background(), srv.Addr())
	if err != nil {
		srv.Close()
		return err
	}
	b.srv, b.cl = srv, cl
	b.opt = core.New(b.cat, core.WithEngine(engineSpec()), core.WithDBMSSeed(dbmsSeed))
	b.refs = make(map[string]*reference)
	b.prepared = make(map[string]*core.Prepared)
	return nil
}

func (b *paperBench) kind(int) opKind { return opRead }

func (b *paperBench) do(i int, t *tracer) (cost, error) {
	sql := b.sql(i)
	if i == 0 {
		b.stats0 = b.srv.CacheStats()
	}
	var got *relation.Relation
	var err error
	d, si := timed(t, "wire.client", func() { got, _, err = b.cl.Query(context.Background(), sql) })
	if err != nil {
		return d, err
	}
	if b.sink != nil {
		// Every query of a traced set-up logs, warm-up included.
		rec, err := b.sink.next()
		if err != nil {
			return d, err
		}
		if t != nil {
			if err := b.replay(t, si, rec, sql, d.wall, got); err != nil {
				return d, err
			}
		}
	}
	ref := b.refs[sql]
	if ref == nil {
		if ref, err = referenceOf(b.opt, sql); err != nil {
			return d, err
		}
		if !b.cold {
			b.refs[sql] = ref
		}
	}
	return d, ref.check(sql, got)
}

// replay decomposes one served query: the server's own phase clocks from
// its query log become children of the client span, and the layer calls
// the server made are replayed in process under their own spans.
func (b *paperBench) replay(t *tracer, si int, rec *obs.QueryRecord, sql string, client time.Duration, got *relation.Relation) error {
	var at time.Duration
	for _, ph := range []struct {
		name string
		ms   float64
	}{{"server.queue", rec.QueueMS}, {"server.plan", rec.PlanMS}, {"server.exec", rec.ExecMS}, {"server.stream", rec.StreamMS}} {
		d := time.Duration(ph.ms * float64(time.Millisecond))
		t.child(si, ph.name, at, d)
		at += d
	}
	a := &b.acc
	a.records++
	a.lookups++
	if rec.CacheHit {
		a.hits++
	}
	a.queue += rec.QueueMS
	a.plan += rec.PlanMS
	a.exe += rec.ExecMS
	a.strm += rec.StreamMS
	a.client += client - time.Duration(rec.TotalMS()*float64(time.Millisecond))
	a.nClient++

	// Planning is replayed only where the server planned: on a cache miss.
	prep := b.prepared[sql]
	var err error
	switch {
	case !rec.CacheHit:
		if prep, _, err = a.tracePrepare(t, b.opt, sql); err != nil {
			return err
		}
	case prep == nil:
		if prep, err = b.opt.Prepare(sql); err != nil {
			return err
		}
		b.prepared[sql] = prep
	}
	res, _, _, err := a.traceExecute(t, b.cat, prep.Plan)
	if err != nil {
		return err
	}
	if err := sameList("in-process replay of "+sql, res, got); err != nil {
		return err
	}
	return a.traceEncode(t, res)
}

func (b *paperBench) finish(n int, t *tracer, m map[string]float64) error {
	st := b.srv.CacheStats()
	hits := st.Hits - b.stats0.Hits
	lookups := hits + st.Misses - b.stats0.Misses
	if lookups != int64(n) {
		return fmt.Errorf("plan cache saw %d lookups for %d queries", lookups, n)
	}
	if b.cold && hits != 0 {
		return fmt.Errorf("paper-cold: %d of %d queries hit the plan cache; every one must plan", hits, n)
	}
	if !b.cold && hits != lookups {
		return fmt.Errorf("paper-warm: %d of %d queries missed the plan cache; every one must be served warm", lookups-hits, n)
	}
	b.acc.fill(m)
	return nil
}

func (b *paperBench) close() {
	b.cl.Close()
	b.srv.Close()
}
