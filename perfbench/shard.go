package main

import (
	"context"
	"fmt"
	"time"

	"tqp/internal/catalog"
	"tqp/internal/coord"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/relation"
	"tqp/internal/server"
	"tqp/internal/shard"
)

// shardedShapes are five exec-heavy statements over the synthetic employee
// database, all served from the coordinator's warm plan cache: the Figure 1
// coalesce/except, a temporal and a conventional GROUP BY, and COALESCED
// DISTINCT. The DBMS-resident VALIDTIME DISTINCT join is deliberately
// absent: the simulated DBMS runs it as nested loops (hundreds of ms at
// this size), and its spread would swamp everything else.
var shardedShapes = []string{
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC",
	"VALIDTIME SELECT Dept, COUNT(*) AS headcount FROM EMPLOYEE GROUP BY Dept",
	"SELECT EmpName, COUNT(*) AS spells FROM EMPLOYEE GROUP BY EmpName ORDER BY EmpName",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE ORDER BY EmpName ASC",
	"VALIDTIME SELECT Prj, COUNT(*) AS n FROM PROJECT GROUP BY Prj",
}

const shardCount = 2

// shardedBench is a coordinator frontend over two in-process shard servers,
// queried by one client connection.
type shardedBench struct {
	rot   *rotation
	cat   *catalog.Catalog
	smap  *shard.Map
	fleet []*server.Server
	co    *coord.Coordinator
	front *coord.Frontend
	cl    *server.Client

	single    *core.Optimizer // a single node planned like the coordinator
	expect    map[string]*relation.Relation
	plans     map[string]*core.Prepared
	hits, ops int
	acc       layerAcc
}

func setupSharded(cfg config, t *tracer) (bench, error) {
	b := &shardedBench{
		rot: newRotation(len(shardedShapes), cfg.seed),
		cat: datagen.EmployeeDB(datagen.EmployeeSpec{
			Employees: 500, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: cfg.seed,
		}),
		expect: make(map[string]*relation.Relation),
		plans:  make(map[string]*core.Prepared),
	}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	var err error
	if b.smap, err = shard.NewMap(b.cat, shardCount); err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < shardCount; i++ {
		sub, pos, err := b.smap.Partition(i)
		if err != nil {
			return nil, err
		}
		s, err := server.Start(server.Config{Catalog: sub, ShardPositions: pos, Seed: dbmsSeed})
		if err != nil {
			return nil, err
		}
		b.fleet = append(b.fleet, s)
		addrs = append(addrs, s.Addr())
	}
	spec := engineSpec()
	if b.co, err = coord.New(context.Background(), coord.Config{Catalog: b.cat, Addrs: addrs, Spec: spec, Seed: dbmsSeed}); err != nil {
		return nil, err
	}
	if b.front, err = b.co.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if b.cl, err = server.Dial(context.Background(), b.front.Addr()); err != nil {
		return nil, err
	}
	for _, sql := range shardedShapes {
		if _, _, err := b.cl.Query(context.Background(), sql); err != nil {
			return nil, err
		}
	}
	b.single = core.New(b.cat, core.WithEngine(spec), core.WithDBMSSeed(dbmsSeed),
		core.WithCostParams(core.ShardedCostParams(spec, shardCount)))
	ok = true
	return b, nil
}

func (b *shardedBench) kind(int) opKind { return opRead }

func (b *shardedBench) do(i int, t *tracer) (cost, error) {
	sql := shardedShapes[b.rot.at(i)]
	before := b.co.Stats()
	var got *relation.Relation
	var err error
	d, _ := timed(t, "coord.frontend", func() { got, _, err = b.cl.Query(context.Background(), sql) })
	if err != nil {
		return d, err
	}
	after := b.co.Stats()
	if i >= 0 {
		b.ops++
		b.hits += after.CacheHits - before.CacheHits
	}
	if calls := after.ShardCalls - before.ShardCalls; calls < 2 {
		return d, fmt.Errorf("%q dispatched %d shard fragments; the workload needs at least 2 per query", sql, calls)
	}
	want, err := b.expected(sql)
	if err != nil {
		return d, err
	}
	if err := sameList(fmt.Sprintf("sharded %q against a single node", sql), want, got); err != nil {
		return d, err
	}
	if t != nil {
		return d, b.replay(t, sql, d.wall)
	}
	return d, nil
}

// expected is the single-node result of sql, planned with the same sharded
// cost calibration; the coordinator must reproduce it bit for bit.
func (b *shardedBench) expected(sql string) (*relation.Relation, error) {
	if r, ok := b.expect[sql]; ok {
		return r, nil
	}
	prep, err := b.single.Prepare(sql)
	if err != nil {
		return nil, err
	}
	r, _, err := b.single.ExecutePlan(prep.Plan, engineSpec())
	if err != nil {
		return nil, err
	}
	b.expect[sql], b.plans[sql] = r, prep
	return r, nil
}

// replay decomposes one coordinated query: the in-process Coordinator.Query
// the frontend serves it with, the split a cache miss would make, and the
// single-node stratum execution of the same plan.
func (b *shardedBench) replay(t *tracer, sql string, frontend time.Duration) error {
	a := &b.acc
	var res *relation.Relation
	var meta *coord.Meta
	var err error
	dq, _ := timed(t, "coord.query", func() { res, meta, err = b.co.Query(context.Background(), sql) })
	if err != nil {
		return err
	}
	a.coordQuery += dq.wall
	a.frontend += frontend - dq.wall
	a.nCoord++
	a.fragments += meta.Fragments * meta.Shards
	a.shards += meta.Shards
	prep := b.plans[sql]
	ds, _ := timed(t, "coord.split", func() {
		_, err = core.SplitForShards(prep.Plan, core.SplitPolicy{Colocated: b.smap.Colocated})
	})
	if err != nil {
		return err
	}
	a.split += ds.wall
	a.nSplit++
	single, _, _, err := a.traceExecute(t, b.cat, prep.Plan)
	if err != nil {
		return err
	}
	if err := sameList("single-node replay of "+sql, single, res); err != nil {
		return err
	}
	return a.traceEncode(t, res)
}

func (b *shardedBench) finish(n int, t *tracer, m map[string]float64) error {
	if b.ops != n || b.hits != n {
		return fmt.Errorf("sharded-scan: %d of %d queries hit the coordinator's plan cache; every one must be served warm", b.hits, n)
	}
	b.acc.lookups, b.acc.hits = b.ops, b.hits
	b.acc.fill(m)
	return nil
}

func (b *shardedBench) close() {
	if b.cl != nil {
		b.cl.Close()
	}
	if b.front != nil {
		b.front.Close()
	}
	if b.co != nil {
		b.co.Close()
	}
	for _, s := range b.fleet {
		s.Close()
	}
}
