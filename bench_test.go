// Benchmarks, one per reproduced table/figure of the paper (see
// EXPERIMENTS.md for the experiment index E1–E10). The paper itself reports
// no wall-clock numbers — it is a foundations paper — so these benches
// provide the performance harness its future-work section calls for:
// regenerating each artifact, timing the machinery that produces it, and
// measuring the optimizer's effect with the simulated stratum/DBMS stack.
package tqp_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/coord"
	"tqp/internal/core"
	"tqp/internal/cost"
	"tqp/internal/datagen"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/rules"
	"tqp/internal/schema"
	"tqp/internal/server"
	"tqp/internal/shard"
	"tqp/internal/stratum"
	"tqp/internal/testutil"
	"tqp/internal/tsql"
	"tqp/internal/value"
)

// BenchmarkE1_Figure1Query evaluates the running example's initial plan on
// the Figure 1 database (the artifact itself is pinned by tests).
func BenchmarkE1_Figure1Query(b *testing.B) {
	c := catalog.Paper()
	plan := catalog.PaperInitialPlan(c)
	ev := eval.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Figure2Plans compares the initial plan of Figure 2(a) against
// the optimized plan of Figure 6(b) in the layered executor, across
// database scales: the shape the paper argues for (temporal operations in
// the stratum, sort in the DBMS) must win, increasingly with size.
func BenchmarkE2_Figure2Plans(b *testing.B) {
	for _, emps := range []int{20, 100, 400} {
		c := datagen.EmployeeDB(datagen.EmployeeSpec{
			Employees: emps, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
		})
		for _, pl := range []struct {
			name string
			plan algebra.Node
		}{
			{"initial", catalog.PaperInitialPlan(c)},
			{"optimized", catalog.PaperOptimizedPlan(c)},
		} {
			b.Run(fmt.Sprintf("emps=%d/%s", emps, pl.name), func(b *testing.B) {
				ex := stratum.New(c, 1)
				var units float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, tr, err := ex.Execute(pl.plan)
					if err != nil {
						b.Fatal(err)
					}
					units = tr.TotalUnits()
				}
				b.ReportMetric(units, "simunits")
			})
		}
	}
}

// BenchmarkE3_RdupVsRdupT times regular vs temporal duplicate elimination
// vs coalescing (Figure 3's three relations) on generated data.
func BenchmarkE3_RdupVsRdupT(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: rows, Values: rows / 5, DupFrac: 0.2, AdjFrac: 0.3, Seed: 7,
		})
		src := eval.MapSource{"R": r}
		node := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
		for _, op := range []struct {
			name string
			plan algebra.Node
		}{
			{"rdup", algebra.NewRdup(node)},
			{"rdupT", algebra.NewTRdup(node)},
			{"coalT", algebra.NewCoal(node)},
		} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, op.name), func(b *testing.B) {
				ev := eval.New(src)
				for i := 0; i < b.N; i++ {
					if _, err := ev.Eval(op.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE4_OperationTable times every operation of Table 1 on a fixed
// workload — the per-row behavioural claims are verified by tests and by
// cmd/tqbench -run E4.
func BenchmarkE4_OperationTable(b *testing.B) {
	l := datagen.Temporal(datagen.TemporalSpec{Rows: 300, Values: 40, DupFrac: 0.15, AdjFrac: 0.3, Seed: 1})
	r := datagen.Temporal(datagen.TemporalSpec{Rows: 300, Values: 40, DupFrac: 0.15, AdjFrac: 0.3, Seed: 2})
	src := eval.MapSource{"L": l, "R": r}
	ln := algebra.NewRel("L", l.Schema(), algebra.BaseInfo{})
	rn := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
	pred := expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(20)))
	byName := relation.OrderSpec{relation.Key("Name")}
	aggs := []expr.Aggregate{{Func: expr.CountAll, As: "cnt"}}
	ops := []struct {
		name string
		plan algebra.Node
	}{
		{"select", algebra.NewSelect(pred, ln)},
		{"project", algebra.NewProjectCols(ln, "Name", "T1", "T2")},
		{"unionall", algebra.NewUnionAll(ln, rn)},
		{"union", algebra.NewUnion(ln, rn)},
		{"unionT", algebra.NewTUnion(ln, rn)},
		{"product", algebra.NewProduct(ln, rn)},
		{"productT", algebra.NewTProduct(ln, rn)},
		{"diff", algebra.NewDiff(ln, rn)},
		{"diffT", algebra.NewTDiff(ln, rn)},
		{"aggr", algebra.NewAggregate([]string{"Name"}, aggs, ln)},
		{"aggrT", algebra.NewTAggregate([]string{"Name"}, aggs, ln)},
		{"rdup", algebra.NewRdup(ln)},
		{"rdupT", algebra.NewTRdup(ln)},
		{"coalT", algebra.NewCoal(ln)},
		{"sort", algebra.NewSort(byName, ln)},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			ev := eval.New(src)
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(op.plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_EquivalenceChecks times the six equivalence checks of
// Section 3 (Theorem 3.1's lattice is verified by tests).
func BenchmarkE5_EquivalenceChecks(b *testing.B) {
	a := datagen.Temporal(datagen.TemporalSpec{Rows: 400, Values: 50, DupFrac: 0.2, AdjFrac: 0.3, Seed: 3})
	c := a.Clone()
	for _, t := range equiv.All() {
		b.Run(t.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := equiv.Check(t, a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_RuleApplication times matching and applying the whole rule
// catalog of Figure 4/Section 4 across the paper plan's locations.
func BenchmarkE6_RuleApplication(b *testing.B) {
	c := catalog.Paper()
	plan := catalog.PaperInitialPlan(c)
	st, err := props.InferStates(plan)
	if err != nil {
		b.Fatal(err)
	}
	all := rules.All()
	paths := algebra.Paths(plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			node, _ := algebra.NodeAt(plan, path)
			for _, rule := range all {
				rule.Apply(node, st)
			}
		}
	}
}

// BenchmarkE7_PropertyInference times the Table 2 property inference
// (states + the three booleans) over the paper plans.
func BenchmarkE7_PropertyInference(b *testing.B) {
	c := catalog.Paper()
	plans := []algebra.Node{
		catalog.PaperInitialPlan(c),
		catalog.PaperIntermediatePlan(c),
		catalog.PaperOptimizedPlan(c),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			if _, err := props.Infer(p, equiv.ResultList, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE8_Enumeration times the Figure 5 algorithm and reports the plan
// count; sub-benches vary the result type, which changes the admissible
// rule applications (Definition 5.1).
func BenchmarkE8_Enumeration(b *testing.B) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	for _, rt := range []equiv.ResultType{equiv.ResultList, equiv.ResultMultiset, equiv.ResultSet} {
		b.Run(rt.String(), func(b *testing.B) {
			var plans int
			for i := 0; i < b.N; i++ {
				res, err := enum.Enumerate(initial, enum.Config{ResultType: rt})
				if err != nil {
					b.Fatal(err)
				}
				plans = len(res.Plans)
			}
			b.ReportMetric(float64(plans), "plans")
		})
	}
}

// BenchmarkE9_StratumPartitioning measures the end-to-end optimizer on
// scaled databases: parse → enumerate → cost → execute best, reporting the
// simulated speedup of the chosen plan over the initial one.
func BenchmarkE9_StratumPartitioning(b *testing.B) {
	for _, emps := range []int{20, 100} {
		b.Run(fmt.Sprintf("emps=%d", emps), func(b *testing.B) {
			c := datagen.EmployeeDB(datagen.EmployeeSpec{
				Employees: emps, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
			})
			opt := core.New(c)
			var speedup float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plans, err := opt.OptimizeSQL(paperSQL)
				if err != nil {
					b.Fatal(err)
				}
				_, trI, err := stratum.New(c, 1).Execute(plans.Initial)
				if err != nil {
					b.Fatal(err)
				}
				_, trB, err := stratum.New(c, 1).Execute(plans.Best)
				if err != nil {
					b.Fatal(err)
				}
				speedup = trI.TotalUnits() / trB.TotalUnits()
			}
			b.ReportMetric(speedup, "simspeedup")
		})
	}
}

// BenchmarkE10_OptimizerAblation measures enumeration restricted to ≡L
// rules only versus the full catalog: the weak-equivalence types are what
// buy the optimizer its room to move.
func BenchmarkE10_OptimizerAblation(b *testing.B) {
	c := catalog.Paper()
	q, err := tsql.Parse(paperSQL)
	if err != nil {
		b.Fatal(err)
	}
	initial, err := q.Plan(c)
	if err != nil {
		b.Fatal(err)
	}
	model := cost.New(c, cost.DefaultParams())
	variants := []struct {
		name  string
		rules []rules.Rule
	}{
		{"full", rules.All()},
		{"list-only", listOnly(rules.All())},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList, Rules: v.rules})
				if err != nil {
					b.Fatal(err)
				}
				_, bc, err := model.Best(res.Plans)
				if err != nil {
					b.Fatal(err)
				}
				best = bc
			}
			b.ReportMetric(best, "bestcost")
		})
	}
}

// benchRecord is one engine measurement of the machine-readable bench
// output: which benchmark, at which scale, on which engine, how fast, and
// how allocation-hungry (B/op and allocs/op feed the CI allocation gate —
// hardware-independent counts that compare raw across machines).
type benchRecord struct {
	Bench       string  `json:"bench"`
	Rows        int     `json:"rows"`
	Engine      string  `json:"engine"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	OutRows     int     `json:"out_rows"`
}

// memSnap is an allocation-counter snapshot bracketing a benchmark loop.
type memSnap struct{ mallocs, bytes uint64 }

func snapMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc}
}

// since returns the per-op allocation deltas accumulated after m0.
func (m0 memSnap) since(n int) (bPerOp, allocsPerOp float64) {
	m1 := snapMem()
	if n <= 0 {
		return 0, 0
	}
	return float64(m1.bytes-m0.bytes) / float64(n), float64(m1.mallocs-m0.mallocs) / float64(n)
}

// benchRecords accumulates engine measurements across the benchmark run;
// TestMain writes them to the file named by BENCH_JSON (the CI bench smoke
// sets BENCH_engines.json), giving the perf trajectory a machine-readable
// artifact per commit. Benchmarks run sequentially, so no locking.
var benchRecords []benchRecord

// TestMain writes the collected engine benchmark records after the run.
// Without -bench (or without BENCH_JSON in the environment) there is
// nothing to write and the run is a plain test run.
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" && len(benchRecords) > 0 {
		data, err := json.MarshalIndent(benchRecords, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", path, err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(os.Stderr, "bench: wrote %d records to %s\n", len(benchRecords), path)
		}
	}
	os.Exit(code)
}

// recordEngineBench times the benchmark loop wall-clock and appends one
// record; ns/op and the allocation metrics are measured directly so the
// record does not depend on testing internals.
func recordEngineBench(bench string, rows int, engine string, elapsed time.Duration, n, outRows int, bPerOp, allocsPerOp float64) {
	if n <= 0 {
		return
	}
	benchRecords = append(benchRecords, benchRecord{
		Bench: bench, Rows: rows, Engine: engine,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(n),
		BPerOp:  bPerOp, AllocsPerOp: allocsPerOp,
		OutRows: outRows,
	})
}

// BenchmarkEngines pits the physical engines head-to-head on the
// acceptance pipeline — equijoin ⋈ᵀ (hash join vs pair loop), rdupᵀ and
// coalᵀ (hash value-partitioning vs global quadratic scans) — over datagen
// relations at n ∈ {1k, 10k, 100k, 1M} probe rows against a 256-row build
// side. The exec-novec leg runs the same tuple-at-a-time operators with
// the columnar batch pipeline disabled, so exec vs exec-novec at each
// scale is the measured value of vectorization. The reference evaluator
// sits out the 1M leg (its pair-loop join is quadratic there). The ns/op
// ratio between the reference and exec sub-benchmarks at each scale is the
// speedup trajectory; the exec engines' results are additionally asserted
// list-identical to the reference's at the smallest scale (the
// differential suite covers the rest).
func BenchmarkEngines(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		l := datagen.Temporal(datagen.TemporalSpec{
			Rows: n, Values: n / 4, TimeRange: 400, MaxPeriod: 20, Seed: 11})
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: 256, Values: n / 4, TimeRange: 400, MaxPeriod: 20, Seed: 12})
		src := eval.MapSource{"L": l, "R": r}
		ln := algebra.NewRel("L", l.Schema(), algebra.BaseInfo{})
		rn := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
		pred := expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp"))
		plan := algebra.NewCoal(algebra.NewTRdup(algebra.NewTJoin(pred, ln, rn)))

		// Sorted clones drive the merge leg: both sides sorted and declared
		// on the join key, so the engine compiles the merge join on the same
		// pipeline — the columnar merge path next to the hash legs.
		byGrp := relation.OrderSpec{relation.Key("Grp")}
		lm, rm := l.Clone(), r.Clone()
		for _, rel := range []*relation.Relation{lm, rm} {
			if err := rel.SortStable(byGrp); err != nil {
				b.Fatal(err)
			}
		}
		srcM := eval.MapSource{"L": lm, "R": rm}
		planM := algebra.NewCoal(algebra.NewTRdup(algebra.NewTJoin(pred,
			algebra.NewRel("L", lm.Schema(), algebra.BaseInfo{Order: byGrp}),
			algebra.NewRel("R", rm.Schema(), algebra.BaseInfo{Order: byGrp}))))

		engines := []struct {
			name string
			eng  eval.Engine
			plan algebra.Node
		}{
			{"reference", eval.New(src), plan},
			{"exec", exec.New(src), plan},
			{"exec-novec", exec.NewWith(src, exec.Options{NoColumnar: true}), plan},
			{"exec-merge", exec.New(srcM), planM},
			{"exec-par8", exec.NewWith(src, exec.Options{Parallelism: 8}), plan},
			{"exec-mem16M", exec.NewWith(src, exec.Options{MemoryBudget: 16 << 20}), plan},
		}
		if n == 1000 {
			want, err := engines[0].eng.Eval(plan)
			if err != nil {
				b.Fatal(err)
			}
			wantM, err := eval.New(srcM).Eval(planM)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range engines[1:] {
				got, err := e.eng.Eval(e.plan)
				if err != nil {
					b.Fatalf("engine %s eval failed: %v", e.name, err)
				}
				w := want
				if e.name == "exec-merge" {
					w = wantM
				}
				if !got.EqualAsList(w) {
					b.Fatalf("%s and reference disagree on the benchmark plan", e.name)
				}
			}
		}
		for _, e := range engines {
			if n == 1000000 && e.name == "reference" {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, e.name), func(b *testing.B) {
				var rows int
				m0 := snapMem()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					out, err := e.eng.Eval(e.plan)
					if err != nil {
						b.Fatal(err)
					}
					rows = out.Len()
				}
				elapsed := time.Since(start)
				bPerOp, allocsPerOp := m0.since(b.N)
				recordEngineBench("engines", n, e.name, elapsed, b.N, rows, bPerOp, allocsPerOp)
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkColumnar isolates the columnar batch pipeline on its target
// shape — scan → filter → equijoin ⋈ᵀ → rdupᵀ → coalᵀ, every operator of
// which has a vectorized variant — at 100k and 1M probe rows. Unlike
// BenchmarkEngines (unfiltered inputs, arbitrary plans) this is the
// vectorization acceptance measurement: exec runs batch-at-a-time with
// selection vectors end to end, exec-novec runs the identical tuple
// operators, and the gap is the step-change the columnar refactor buys.
// Parity and non-vacuity (the columnar leg must actually compile vector
// operators) are asserted at the smaller scale.
func BenchmarkColumnar(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		l := datagen.Temporal(datagen.TemporalSpec{
			Rows: n, Values: n / 4, TimeRange: 400, MaxPeriod: 20, Seed: 11})
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: 256, Values: n / 4, TimeRange: 400, MaxPeriod: 20, Seed: 12})
		src := eval.MapSource{"L": l, "R": r}
		ln := algebra.NewRel("L", l.Schema(), algebra.BaseInfo{})
		rn := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
		// ~50% selective scan filter: Grp draws from [0, n/4).
		filtered := algebra.NewSelect(
			expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(int64(n/8)))), ln)
		pred := expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp"))
		plan := algebra.NewCoal(algebra.NewTRdup(algebra.NewTJoin(pred, filtered, rn)))

		// The merge leg runs the same shape over join-key-sorted, declared
		// inputs so the merge join (and the batch paths behind it) compiles
		// instead of the hash join.
		byGrp := relation.OrderSpec{relation.Key("Grp")}
		lm, rm := l.Clone(), r.Clone()
		for _, rel := range []*relation.Relation{lm, rm} {
			if err := rel.SortStable(byGrp); err != nil {
				b.Fatal(err)
			}
		}
		srcM := eval.MapSource{"L": lm, "R": rm}
		planM := algebra.NewCoal(algebra.NewTRdup(algebra.NewTJoin(pred,
			algebra.NewSelect(
				expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(int64(n/8)))),
				algebra.NewRel("L", lm.Schema(), algebra.BaseInfo{Order: byGrp})),
			algebra.NewRel("R", rm.Schema(), algebra.BaseInfo{Order: byGrp}))))

		if n == 100000 {
			vec := exec.New(src)
			got, err := vec.Eval(plan)
			if err != nil {
				b.Fatal(err)
			}
			want, err := exec.NewWith(src, exec.Options{NoColumnar: true}).Eval(plan)
			if err != nil {
				b.Fatal(err)
			}
			if !got.EqualAsList(want) {
				b.Fatal("columnar and tuple engines disagree on the benchmark plan")
			}
			if st := vec.Stats(); st.VectorOps == 0 || st.VectorBatches == 0 {
				b.Fatalf("vacuous columnar benchmark: VectorOps=%d VectorBatches=%d", st.VectorOps, st.VectorBatches)
			}
			// The merge leg must really be the merge plan, columnar included.
			mrg := exec.New(srcM)
			gotM, err := mrg.Eval(planM)
			if err != nil {
				b.Fatal(err)
			}
			wantM, err := exec.NewWith(srcM, exec.Options{NoColumnar: true}).Eval(planM)
			if err != nil {
				b.Fatal(err)
			}
			if !gotM.EqualAsList(wantM) {
				b.Fatal("merge columnar and tuple engines disagree on the sorted benchmark plan")
			}
			if st := mrg.Stats(); st.MergeJoins == 0 || st.VectorOps == 0 {
				b.Fatalf("vacuous merge leg: MergeJoins=%d VectorOps=%d", st.MergeJoins, st.VectorOps)
			}
		}
		for _, e := range []struct {
			name string
			opts exec.Options
			src  eval.MapSource
			plan algebra.Node
		}{
			{"exec", exec.Options{}, src, plan},
			{"exec-novec", exec.Options{NoColumnar: true}, src, plan},
			{"exec-merge", exec.Options{}, srcM, planM},
			{"exec-par8", exec.Options{Parallelism: 8}, src, plan},
			{"exec-mem16M", exec.Options{MemoryBudget: 16 << 20}, src, plan},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, e.name), func(b *testing.B) {
				var rows int
				m0 := snapMem()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					out, err := exec.NewWith(e.src, e.opts).Eval(e.plan)
					if err != nil {
						b.Fatal(err)
					}
					rows = out.Len()
				}
				elapsed := time.Since(start)
				bPerOp, allocsPerOp := m0.since(b.N)
				recordEngineBench("columnar", n, e.name, elapsed, b.N, rows, bPerOp, allocsPerOp)
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkMergeVsHash measures the merge operator family against the hash
// baseline on pre-sorted inputs: both relations sorted (and declared) on
// ⟨Name, Grp⟩, so the merge engine compiles a merge join, streaming
// group-at-a-time rdupᵀ/coalᵀ, and an elided top sort, while the hash-only
// engine (PR 1's operators) hashes everything and physically sorts. The
// reference evaluator joins for scale. Records land in BENCH_engines.json
// alongside BenchmarkEngines.
func BenchmarkMergeVsHash(b *testing.B) {
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	for _, n := range []int{1000, 10000} {
		l := datagen.Temporal(datagen.TemporalSpec{
			Rows: n, Values: n / 4, TimeRange: 400, MaxPeriod: 20, Seed: 11})
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: 256, Values: n / 4, TimeRange: 400, MaxPeriod: 20, Seed: 12})
		for _, rel := range []*relation.Relation{l, r} {
			if err := rel.SortStable(byNameGrp); err != nil {
				b.Fatal(err)
			}
		}
		src := eval.MapSource{"L": l, "R": r}
		ln := algebra.NewRel("L", l.Schema(), algebra.BaseInfo{Order: byNameGrp})
		rn := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{Order: byNameGrp})
		pred := expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name"))
		plan := algebra.NewSort(relation.OrderSpec{relation.Key("1.Name")},
			algebra.NewCoal(algebra.NewTRdup(algebra.NewTJoin(pred, ln, rn))))

		engines := []struct {
			name string
			eng  eval.Engine
		}{
			{"reference", eval.New(src)},
			{"exec-hash", exec.NewWith(src, exec.Options{NoMerge: true, NoSortElision: true})},
			{"exec-merge", exec.New(src)},
		}
		want, err := engines[0].eng.Eval(plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range engines[1:] {
			got, err := e.eng.Eval(plan)
			if err != nil {
				b.Fatal(err)
			}
			if !got.EqualAsList(want) {
				b.Fatalf("%s disagrees with the reference on the benchmark plan", e.name)
			}
		}
		for _, e := range engines {
			b.Run(fmt.Sprintf("n=%d/%s", n, e.name), func(b *testing.B) {
				var rows int
				m0 := snapMem()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					out, err := e.eng.Eval(plan)
					if err != nil {
						b.Fatal(err)
					}
					rows = out.Len()
				}
				elapsed := time.Since(start)
				bPerOp, allocsPerOp := m0.since(b.N)
				recordEngineBench("merge-vs-hash", n, e.name, elapsed, b.N, rows, bPerOp, allocsPerOp)
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkParallel extends E13's scaling curve to 1M rows and feeds
// BENCH_engines.json: the sequential engine (worker count 1) against the
// morsel-parallel engine at 2 and GOMAXPROCS workers on the acceptance
// pipeline (equijoin ⋈ᵀ → rdupᵀ → coalᵀ). On a multi-core runner the
// parallel ns/op at 100k+ rows is the speedup evidence; on one core the
// records document the exchange overhead instead. Parity across worker
// counts is asserted at the smallest scale (the differential suite covers
// the rest).
func BenchmarkParallel(b *testing.B) {
	workers := []int{1, 2}
	if w := runtime.GOMAXPROCS(0); w > 2 {
		workers = append(workers, w)
	}
	for _, n := range []int{10000, 100000, 1000000} {
		src, plan := testutil.ParallelPipeline(n)

		if n == 10000 {
			want, err := exec.New(src).Eval(plan)
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range workers {
				got, err := exec.NewWith(src, exec.Options{Parallelism: w}).Eval(plan)
				if err != nil {
					b.Fatal(err)
				}
				if !got.EqualAsList(want) {
					b.Fatalf("parallelism %d disagrees with the sequential engine", w)
				}
			}
		}
		for _, w := range workers {
			name := "exec-seq"
			if w > 1 {
				name = fmt.Sprintf("exec-par%d", w)
			}
			opts := exec.Options{Parallelism: w}
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				var rows int
				m0 := snapMem()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					out, err := exec.NewWith(src, opts).Eval(plan)
					if err != nil {
						b.Fatal(err)
					}
					rows = out.Len()
				}
				elapsed := time.Since(start)
				bPerOp, allocsPerOp := m0.since(b.N)
				recordEngineBench("parallel", n, name, elapsed, b.N, rows, bPerOp, allocsPerOp)
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkSpill measures the memory-bounded engine against the unbudgeted
// one on the spill acceptance pipeline (rdupᵀ → coalᵀ over a single wide
// relation): at 100k and 1M rows a 16MB budget forces grace-hash spilling
// of both operators, so the records quantify the spill overhead (codec +
// temp-file I/O) next to the in-memory engine, and E14 charts the same
// curve across budgets. Results are asserted identical at the smallest
// scale; records land in BENCH_engines.json alongside the other suites.
func BenchmarkSpill(b *testing.B) {
	const budget = 16 << 20
	for _, n := range []int{100000, 1000000} {
		src, plan := testutil.SpillPipeline(n)
		if n == 100000 {
			want, err := exec.New(src).Eval(plan)
			if err != nil {
				b.Fatal(err)
			}
			eng := exec.NewWith(src, exec.Options{MemoryBudget: budget})
			got, err := eng.Eval(plan)
			if err != nil {
				b.Fatal(err)
			}
			if !got.EqualAsList(want) {
				b.Fatal("budgeted engine disagrees with the unbudgeted engine")
			}
			if eng.Stats().SpilledOps == 0 {
				b.Fatalf("vacuous spill benchmark: nothing spilled at %d bytes over %d rows", budget, n)
			}
		}
		for _, e := range []struct {
			name   string
			budget int64
		}{
			{"exec", 0},
			{"exec-mem16M", budget},
		} {
			opts := exec.Options{MemoryBudget: e.budget}
			b.Run(fmt.Sprintf("n=%d/%s", n, e.name), func(b *testing.B) {
				var rows int
				m0 := snapMem()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					out, err := exec.NewWith(src, opts).Eval(plan)
					if err != nil {
						b.Fatal(err)
					}
					rows = out.Len()
				}
				elapsed := time.Since(start)
				bPerOp, allocsPerOp := m0.since(b.N)
				recordEngineBench("spill", n, e.name, elapsed, b.N, rows, bPerOp, allocsPerOp)
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkServerThroughput measures the serving layer end to end: N
// concurrent TCP clients (1, 8, 32) firing the paper query at one server,
// with the plan cache disabled ("cold-cache": every statement re-parses
// and re-enumerates) versus enabled ("warm-cache": repeat statements skip
// straight to execution). Every client issues b.N queries, so each cell
// really runs at its client count regardless of -benchtime; the recorded
// ns_per_op is per query with that many clients in flight. The warm/cold
// ratio at each client count is the measured value of the plan cache — on
// this planning-dominant statement the beam enumeration is most of a
// query's cost, so warm should win by a wide margin. Records land in
// BENCH_engines.json ("server"; rows = client count) and gate in CI like
// the engine suites.
func BenchmarkServerThroughput(b *testing.B) {
	cat := catalog.Paper()
	for _, mode := range []struct {
		name      string
		cacheSize int
	}{
		{"cold-cache", -1}, // negative disables the cache
		{"warm-cache", 0},  // 0 selects the default capacity
	} {
		for _, clients := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("clients=%d/%s", clients, mode.name), func(b *testing.B) {
				srv, err := server.Start(server.Config{
					Catalog:       cat,
					CacheSize:     mode.cacheSize,
					MaxConcurrent: 8,
					Workers:       8,
					MaxQueue:      64,
					QueueTimeout:  time.Minute, // saturation is the point; never reject
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				cls := make([]*server.Client, clients)
				for i := range cls {
					cl, err := server.Dial(context.Background(), srv.Addr())
					if err != nil {
						b.Fatal(err)
					}
					defer cl.Close()
					cls[i] = cl
				}
				// Sanity (and the warm leg's cache fill): one query up front.
				r, _, err := cls[0].Query(context.Background(), paperSQL)
				if err != nil {
					b.Fatal(err)
				}
				rows := r.Len()

				b.ResetTimer()
				m0 := snapMem()
				start := time.Now()
				errc := make(chan error, clients)
				var wg sync.WaitGroup
				for _, cl := range cls {
					wg.Add(1)
					go func(cl *server.Client) {
						defer wg.Done()
						for j := 0; j < b.N; j++ {
							if _, _, err := cl.Query(context.Background(), paperSQL); err != nil {
								errc <- err
								return
							}
						}
					}(cl)
				}
				wg.Wait()
				elapsed := time.Since(start)
				close(errc)
				for err := range errc {
					b.Fatal(err)
				}
				queries := b.N * clients
				bPerOp, allocsPerOp := m0.since(queries)
				recordEngineBench("server", clients, mode.name, elapsed, queries, rows, bPerOp, allocsPerOp)
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkSharded measures the scale-out path end to end: an in-process
// fleet of 1, 2 and 4 shard servers behind the coordinator, firing the
// paper query at a ~1M-row synthetic employee database. Each iteration is
// one coordinated query — split, scatter over the wire protocol, per-shard
// fragment execution, deterministic gather, remainder — with the plan
// cache warm, so the cells chart how the same statement scales as shards
// are added. The 1-shard cell is the distribution overhead floor (all the
// wire and merge cost, none of the parallelism); on a multi-core host the
// speedup at 4 shards over 1 is the scale-out evidence, while on one core
// — as with BenchmarkParallel — the records document the distribution
// overhead instead (fleet and coordinator time-slice a single CPU, so
// extra shards cannot win wall-clock). Bit-identity against a single node is
// asserted at the 1-shard cell (the differential suite in internal/coord
// covers every fleet size); records land in BENCH_engines.json
// ("sharded"; rows = shard count) and gate in CI like the engine suites.
func BenchmarkSharded(b *testing.B) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{
		Employees: 143000, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
	})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			m, err := shard.NewMapMode(db, n, shard.Auto)
			if err != nil {
				b.Fatal(err)
			}
			addrs := make([]string, n)
			for i := 0; i < n; i++ {
				sub, pos, err := m.Partition(i)
				if err != nil {
					b.Fatal(err)
				}
				srv, err := server.Start(server.Config{
					Addr: "127.0.0.1:0", Catalog: sub, ShardPositions: pos, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				addrs[i] = srv.Addr()
			}
			c, err := coord.New(context.Background(), coord.Config{
				Catalog: db, Addrs: addrs, Spec: exec.Spec(), Seed: 1,
				QueryTimeout: 10 * time.Minute,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			// Warm the plan cache; at 1 shard also pin bit-identity
			// against a single node planned with the same cost model.
			got, _, err := c.Query(context.Background(), paperSQL)
			if err != nil {
				b.Fatal(err)
			}
			if n == 1 {
				oracle := core.New(db, core.WithEngine(exec.Spec()), core.WithDBMSSeed(1),
					core.WithCostParams(core.ShardedCostParams(exec.Spec(), n)))
				prep, err := oracle.Prepare(paperSQL)
				if err != nil {
					b.Fatal(err)
				}
				want, _, err := oracle.ExecutePlan(prep.Plan, exec.Spec())
				if err != nil {
					b.Fatal(err)
				}
				if !want.EqualAsList(got) {
					b.Fatal("sharded result diverges from single node")
				}
			}
			rows := got.Len()

			b.ResetTimer()
			m0 := snapMem()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				out, _, err := c.Query(context.Background(), paperSQL)
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			elapsed := time.Since(start)
			bPerOp, allocsPerOp := m0.since(b.N)
			recordEngineBench("sharded", n, "coord", elapsed, b.N, rows, bPerOp, allocsPerOp)
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkStore measures the persistence layer end to end: cold open
// (manifest + every segment decoded back into memory), period scans over a
// 16-segment store at 100k and 1M rows, and append throughput (segment
// encode, fsync, manifest commit per batch). The scan legs bracket the
// period index: scan-full returns the resident relation (the no-work
// floor), scan-travel-wide is a travel scan whose period overlaps every
// fence (all rows filtered — the unindexed cost), and scan-indexed names
// one era, so the wide/indexed ns ratio is the measured value of fence
// pruning. The indexed leg asserts non-vacuity: exactly one segment
// survives the fences.
func BenchmarkStore(b *testing.B) {
	sch := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
	const segs = 16
	for _, n := range []int{100000, 1000000} {
		dir := b.TempDir()
		c, err := catalog.OpenDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		// segs eras with disjoint chronon fences, n/segs rows each.
		per := n / segs
		chunk := func(era int) [][]any {
			rows := make([][]any, per)
			base := era * 1000
			for j := range rows {
				start := base + j%990
				rows[j] = []any{fmt.Sprintf("v%d", j%257), start, start + 5}
			}
			return rows
		}
		if err := c.AddDisk("R", relation.MustFromRows(sch, chunk(0)), algebra.BaseInfo{}); err != nil {
			b.Fatal(err)
		}
		for era := 1; era < segs; era++ {
			if err := c.AppendRows("R", chunk(era)); err != nil {
				b.Fatal(err)
			}
		}

		b.Run(fmt.Sprintf("n=%d/cold-open", n), func(b *testing.B) {
			var rows int
			m0 := snapMem()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				cold, err := catalog.OpenDir(dir)
				if err != nil {
					b.Fatal(err)
				}
				r, err := cold.Resolve("R")
				if err != nil {
					b.Fatal(err)
				}
				rows = r.Len()
			}
			elapsed := time.Since(start)
			bPerOp, allocsPerOp := m0.since(b.N)
			recordEngineBench("store", n, "cold-open", elapsed, b.N, rows, bPerOp, allocsPerOp)
			b.ReportMetric(float64(rows), "rows")
		})

		scans := []struct {
			leg  string
			scan string
		}{
			{"scan-full", "R"},
			// A period overlapping every fence: no segment pruned, every
			// row filtered — what a travel scan costs without the index.
			{"scan-travel-wide", catalog.ScanName("R", &catalog.Travel{
				Kind: catalog.TravelPeriod, Start: 0, End: segs * 1000})},
			// One era's span: fences prune 15 of the 16 segments.
			{"scan-indexed", catalog.ScanName("R", &catalog.Travel{
				Kind: catalog.TravelPeriod, Start: 3000, End: 4000})},
		}
		for _, s := range scans {
			b.Run(fmt.Sprintf("n=%d/%s", n, s.leg), func(b *testing.B) {
				var rows int
				m0 := snapMem()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					r, scanned, skipped, err := c.ResolveScan(s.scan)
					if err != nil {
						b.Fatal(err)
					}
					if s.leg == "scan-indexed" && (scanned != 1 || skipped != segs-1) {
						b.Fatalf("indexed scan touched %d/%d segments — the fence pruning is vacuous", scanned, scanned+skipped)
					}
					rows = r.Len()
				}
				elapsed := time.Since(start)
				bPerOp, allocsPerOp := m0.since(b.N)
				// scan-full returns the resident relation pointer in
				// sub-microsecond time — far below the gate's noise floor —
				// so only the travel legs are recorded for benchdiff.
				if s.leg != "scan-full" {
					recordEngineBench("store", n, s.leg, elapsed, b.N, rows, bPerOp, allocsPerOp)
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}

	// Append throughput: one 4096-row batch per op through the full commit
	// protocol (segment write + fsync + manifest rename).
	b.Run("append-4k", func(b *testing.B) {
		const batch = 4096
		dir := b.TempDir()
		c, err := catalog.OpenDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([][]any, batch)
		for j := range rows {
			rows[j] = []any{fmt.Sprintf("v%d", j%257), j % 990, j%990 + 5}
		}
		if err := c.AddDisk("R", relation.MustFromRows(sch, rows), algebra.BaseInfo{}); err != nil {
			b.Fatal(err)
		}
		m0 := snapMem()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := c.AppendRows("R", rows); err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		bPerOp, allocsPerOp := m0.since(b.N)
		recordEngineBench("store", batch, "append", elapsed, b.N, batch, bPerOp, allocsPerOp)
		b.ReportMetric(float64(batch)*float64(b.N)/elapsed.Seconds(), "rows/s")
	})

	// Append cost against relation size: 256-row, time-ordered appends to
	// a Distinct relation already holding 8k, then 64k rows (the
	// ingest-travel shape). Each batch lies past every stored period, so
	// its fence meets no stored segment and the per-append ns should not
	// grow with the relation; the 64k/8k ratio measures that. Recorded
	// with rows = the relation's size before the first append.
	for _, base := range []int{8192, 65536} {
		b.Run(fmt.Sprintf("append-growing/n=%d", base), func(b *testing.B) {
			const batch = 256
			// rows returns n rows with unique names and 5-chronon periods
			// starting at from, from+1, ….
			rows := func(from, n int) [][]any {
				out := make([][]any, n)
				for j := range out {
					out[j] = []any{fmt.Sprintf("v%d", from+j), from + j, from + j + 5}
				}
				return out
			}
			c, err := catalog.OpenDir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			info := algebra.BaseInfo{Distinct: true}
			if err := c.AddDisk("R", relation.MustFromRows(sch, rows(0, base)), info); err != nil {
				b.Fatal(err)
			}
			// A gap of 10 chronons between batches keeps every fence clear
			// of the next batch's span.
			batches := make([][][]any, b.N)
			for i := range batches {
				batches[i] = rows(base+10+i*(batch+10), batch)
			}
			b.ResetTimer()
			m0 := snapMem()
			start := time.Now()
			for _, rs := range batches {
				if err := c.AppendRows("R", rs); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			bPerOp, allocsPerOp := m0.since(b.N)
			recordEngineBench("store", base, "append-growing", elapsed, b.N, batch, bPerOp, allocsPerOp)
		})
	}
}

const paperSQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

func listOnly(rs []rules.Rule) []rules.Rule {
	var out []rules.Rule
	for _, r := range rs {
		if r.Type == equiv.List {
			out = append(out, r)
		}
	}
	return out
}

// planTemplates are five Figure 1 statements whose beam searches visit
// about equal plan spaces (156–168 plans each). Every {lit} is replaced by
// a literal unique to the iteration, so no two planned statements repeat.
var planTemplates = []string{
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' EXCEPT SELECT EmpName FROM PROJECT WHERE Prj <> 'P{lit}' ORDER BY EmpName ASC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' EXCEPT SELECT EmpName FROM PROJECT WHERE Prj <> 'P{lit}' ORDER BY EmpName DESC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' UNION SELECT EmpName FROM PROJECT WHERE Prj <> 'P{lit}' ORDER BY EmpName ASC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM PROJECT WHERE Prj <> 'P{lit}' EXCEPT SELECT EmpName FROM EMPLOYEE WHERE Dept <> 'D{lit}' ORDER BY EmpName ASC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM PROJECT WHERE Prj <> 'P{lit}' UNION SELECT EmpName FROM EMPLOYEE ORDER BY EmpName ASC",
}

// planSQL returns the i-th planned statement: template i mod 5 with a
// literal no other iteration uses.
func planSQL(i int) string {
	return strings.ReplaceAll(planTemplates[i%len(planTemplates)], "{lit}", strconv.Itoa(i))
}

// BenchmarkPlan times the three phases of cold planning separately over the
// paper templates, each iteration on a statement no earlier one planned:
// parse (tsql.Parse), beam (the initial plan plus the cost-guided beam
// search, OptimizeBeam), and split (carving the prepared plan into
// per-shard fragments for a two-shard coordinator, SplitForShards). Each
// phase is timed alone — the inputs of beam and split are built outside the
// timed region — and recorded as bench "plan", engine = phase, rows = the
// number of templates.
func BenchmarkPlan(b *testing.B) {
	cat := catalog.Paper()
	opt := core.New(cat)
	m, err := shard.NewMapMode(cat, 2, shard.Auto)
	if err != nil {
		b.Fatal(err)
	}
	policy := core.SplitPolicy{Colocated: m.Colocated}
	phases := []struct {
		name string
		// prepare builds the phase's input for statement i outside the
		// timer; run is the timed phase and returns its output count
		// (statements parsed, plans visited, fragments cut), recorded as
		// out_rows.
		prepare func(i int) any
		run     func(in any) int
	}{
		{"parse", func(i int) any { return planSQL(i) }, func(in any) int {
			if _, err := tsql.Parse(in.(string)); err != nil {
				b.Fatal(err)
			}
			return 1
		}},
		{"beam", func(i int) any {
			q, err := tsql.Parse(planSQL(i))
			if err != nil {
				b.Fatal(err)
			}
			return q
		}, func(in any) int {
			q := in.(*tsql.Query)
			initial, err := q.Plan(cat)
			if err != nil {
				b.Fatal(err)
			}
			ps, err := opt.OptimizeBeam(initial, q.ResultType(), q.OrderBy())
			if err != nil {
				b.Fatal(err)
			}
			return len(ps.All)
		}},
		{"split", func(i int) any {
			prep, err := opt.Prepare(planSQL(i))
			if err != nil {
				b.Fatal(err)
			}
			return prep.Plan
		}, func(in any) int {
			s, err := core.SplitForShards(in.(algebra.Node), policy)
			if err != nil {
				b.Fatal(err)
			}
			return len(s.Fragments)
		}},
	}
	for _, ph := range phases {
		b.Run(ph.name, func(b *testing.B) {
			var elapsed time.Duration
			var bytes, mallocs uint64
			out := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := ph.prepare(i)
				m0 := snapMem()
				b.StartTimer()
				start := time.Now()
				out = ph.run(in)
				elapsed += time.Since(start)
				b.StopTimer()
				m1 := snapMem()
				bytes += m1.bytes - m0.bytes
				mallocs += m1.mallocs - m0.mallocs
				b.StartTimer()
			}
			n := float64(b.N)
			recordEngineBench("plan", len(planTemplates), ph.name, elapsed, b.N, out,
				float64(bytes)/n, float64(mallocs)/n)
			b.ReportMetric(float64(elapsed.Nanoseconds())/n, "phase-ns/op")
		})
	}
}
