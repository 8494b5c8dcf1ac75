package experiments

import (
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/datagen"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/physical"
	"tqp/internal/relation"
)

// sortedCatalog builds a catalog whose base relations are physically sorted
// on ⟨Name, Grp⟩ with the order declared in BaseInfo (Add verifies the
// declaration against the data), the precondition for every
// order-exploiting physical variant.
func sortedCatalog(rows int) *catalog.Catalog {
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	c := catalog.New()
	for i, spec := range []datagen.TemporalSpec{
		{Rows: rows, Values: rows / 4, DupFrac: 0.2, AdjFrac: 0.3, TimeRange: 300, MaxPeriod: 15, Seed: 21},
		{Rows: 256, Values: rows / 4, DupFrac: 0.1, AdjFrac: 0.3, TimeRange: 300, MaxPeriod: 15, Seed: 22},
	} {
		r := datagen.Temporal(spec)
		if err := r.SortStable(byNameGrp); err != nil {
			panic("experiments: " + err.Error())
		}
		name := []string{"L", "R"}[i]
		if err := c.Add(name, r, algebra.BaseInfo{Order: byNameGrp}); err != nil {
			panic("experiments: " + err.Error())
		}
	}
	return c
}

// E12OrderAware is the order-aware planning experiment: on a pre-sorted
// catalog the exec engine compiles merge joins, streaming group-at-a-time
// temporal operators and elided sorts; the three paths (reference
// evaluator, hash-only engine, merge engine) must agree list-exactly while
// the merge path measures faster; the order-aware cost model prices the
// same plans strictly below the order-blind model; and the cost-guided beam
// search, scoring with the order-aware model, discovers the sort-avoiding
// plan.
func E12OrderAware() Report {
	b := newReport()
	c := sortedCatalog(1200)
	byName := relation.OrderSpec{relation.Key("Name")}

	// Two order-sensitive plans over the sorted bases: a grouping pipeline
	// whose top sort elides, and a merge join under an elidable sort.
	pipe := algebra.NewSort(byName,
		algebra.NewCoal(algebra.NewTRdup(c.MustNode("L"))))
	join := algebra.NewSort(relation.OrderSpec{relation.Key("1.Name")},
		algebra.NewTJoin(
			expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")),
			c.MustNode("L"), c.MustNode("R")))

	// The static physical annotation must show the order-exploiting
	// variants — the same decisions the engine makes at build time.
	for _, pl := range []struct {
		name string
		plan algebra.Node
	}{{"pipeline", pipe}, {"join", join}} {
		dec, err := physical.Annotate(pl.plan)
		if err != nil {
			b.pass = false
			b.printf("  %s: annotate: %v\n", pl.name, err)
			continue
		}
		sum := physical.Summarize(dec)
		b.printf("  %s physical plan: %d elided sort(s), %d merge operator(s)\n",
			pl.name, sum.SortsElided, sum.MergeOps)
		b.check(sum.SortsElided >= 1 && sum.MergeOps >= 1,
			pl.name+" compiles with an elided sort and merge operators")
	}

	// Three-way parity with measured speedups: reference vs the hash-only
	// engine (PR 1's physical operators) vs the merge engine.
	b.printf("  %-10s %12s %12s %12s %11s %11s\n",
		"plan", "reference", "hash", "merge", "vs ref", "vs hash")
	okParity := true
	var joinSpeedup float64
	for _, pl := range []struct {
		name string
		plan algebra.Node
	}{{"pipeline", pipe}, {"join", join}} {
		want, dRef, err1 := timedEval(eval.New(c), pl.plan)
		hashEng := exec.NewWith(c, exec.Options{NoMerge: true, NoSortElision: true})
		gotHash, dHash, err2 := timedEval(hashEng, pl.plan)
		mergeEng := exec.New(c)
		gotMerge, dMerge, err3 := timedEval(mergeEng, pl.plan)
		if err1 != nil || err2 != nil || err3 != nil {
			b.pass = false
			b.printf("  %s: evaluation error: %v %v %v\n", pl.name, err1, err2, err3)
			continue
		}
		okParity = okParity && gotHash.EqualAsList(want) && gotMerge.EqualAsList(want) &&
			gotHash.Order().Equal(want.Order()) && gotMerge.Order().Equal(want.Order())
		st := mergeEng.Stats()
		if st.SortsElided == 0 || st.MergeJoins+st.MergeOps == 0 {
			b.pass = false
			b.printf("  %s: merge engine compiled no order-exploiting variant: %+v\n", pl.name, st)
		}
		vsRef := ratio(dRef, dMerge)
		vsHash := ratio(dHash, dMerge)
		if pl.name == "join" {
			joinSpeedup = vsRef
		}
		b.printf("  %-10s %12s %12s %12s %10.1fx %10.2fx\n",
			pl.name, dRef.Round(time.Microsecond), dHash.Round(time.Microsecond),
			dMerge.Round(time.Microsecond), vsRef, vsHash)
	}
	b.check(okParity, "reference, hash and merge paths produce the identical result list and order")
	// The hard gate compares against the reference's pairwise shapes, which
	// the merge path beats by a wide margin; the merge-vs-hash ratio is
	// reported (typically >1) but not gated — both are linear and a loaded
	// CI runner could invert a thin margin.
	b.check(joinSpeedup >= 1.3, "merge join measures at least 1.3x over the reference pair loop")

	// Order-conditional costing: the order-aware model must price the
	// order-exploiting plans strictly below the order-blind (PR 1) model.
	aware := cost.New(c, cost.ParamsFor(true))
	blindParams := cost.ParamsFor(true)
	blindParams.OrderBlind = true
	blind := cost.New(c, blindParams)
	okCost := true
	for _, pl := range []struct {
		name string
		plan algebra.Node
	}{{"pipeline", pipe}, {"join", join}} {
		ca, err1 := aware.Cost(pl.plan)
		cb, err2 := blind.Cost(pl.plan)
		if err1 != nil || err2 != nil {
			b.pass = false
			continue
		}
		b.printf("  %s model cost: order-aware %.0f vs order-blind %.0f (%.1fx)\n",
			pl.name, ca, cb, cb/ca)
		okCost = okCost && ca < cb
	}
	b.check(okCost, "the order-aware model prices both plans strictly below the order-blind model")

	// Beam search scored by the order-aware model: from the pipeline plan
	// it must discover the sort-avoiding plan (rule S1 removes the top sort
	// once order propagation proves it redundant) and rank it cheapest.
	res, err := enum.Beam(pipe, enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList, Memo: aware.NewMemo()},
	})
	if err != nil {
		b.pass = false
		b.printf("  beam search: %v\n", err)
		return Report{ID: "E12", Title: "Extension — order-aware physical planning", Pass: b.pass, Body: b.String()}
	}
	best, bestCost, err := res.Best()
	if err != nil {
		b.pass = false
		return Report{ID: "E12", Title: "Extension — order-aware physical planning", Pass: b.pass, Body: b.String()}
	}
	initialCost := res.Scores[0]
	sorts := 0
	algebra.Walk(best, func(n algebra.Node, _ algebra.Path) bool {
		if n.Op() == algebra.OpSort {
			sorts++
		}
		return true
	})
	b.printf("  beam (order-aware score): %d plans; best %s (cost %.0f vs initial %.0f)\n",
		len(res.Plans), algebra.Canonical(best), bestCost, initialCost)
	b.check(sorts == 0, "the beam search discovers the sort-avoiding plan (no sort node survives)")
	b.check(bestCost < initialCost, "the discovered plan is strictly cheaper under the order-aware model")
	wantList, err1 := eval.New(c).Eval(pipe)
	gotList, err2 := exec.New(c).Eval(best)
	if err1 != nil || err2 != nil {
		b.pass = false
	} else {
		b.check(gotList.EqualAsList(wantList),
			"the sort-avoiding plan still produces the initial plan's exact list (≡L)")
	}
	return Report{ID: "E12", Title: "Extension — order-aware physical planning", Pass: b.pass, Body: b.String()}
}

func ratio(base, other time.Duration) float64 {
	if other <= 0 {
		other = time.Nanosecond
	}
	return float64(base) / float64(other)
}
