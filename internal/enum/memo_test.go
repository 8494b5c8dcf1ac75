package enum_test

import (
	"math/rand"
	"reflect"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/cost"
	"tqp/internal/props"
	"tqp/internal/rules"
	"tqp/internal/testutil"
)

// TestMemoSoundness is the memo's property test: one memo shared by a whole
// chain of rewrites must answer, for every node of every plan in the chain,
// exactly what a fresh memo computes for that plan alone — the state
// (schema included), the estimate, and the canonical form.
//
// Each chain starts from a random plan and applies random steps at random
// locations: a rule of the catalog (guard ignored — the memo must be sound
// for any plan), or a transfer move that wraps a subtree in TS (pushing it
// into the DBMS), wraps a DBMS subtree in TD, or removes a transfer. The
// moves keep the moved subtree's node objects, so the memo sees shared
// nodes under both sites; the test requires that it did.
func TestMemoSoundness(t *testing.T) {
	ruleSet := rules.All()
	bothSites := 0
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat, bases := testutil.TemporalCatalog(seed)
		params := cost.ParamsFor(seed%2 == 0)
		params.Parallelism = int(seed % 3)
		model := cost.New(cat, params)
		memo := model.NewMemo()
		sites := map[algebra.Node]map[props.Site]bool{}

		plan := testutil.RandomPlan(rng, bases, 3)
		for step := 0; step < 16; step++ {
			checkAgainstFreshMemo(t, seed, step, model, memo, plan)
			walkSites(plan, props.Stratum, func(n algebra.Node, s props.Site) {
				if sites[n] == nil {
					sites[n] = map[props.Site]bool{}
				}
				sites[n][s] = true
			})
			if next := rewriteStep(rng, plan, ruleSet, memo); next != nil {
				plan = next
			}
		}
		for _, s := range sites {
			if len(s) == 2 {
				bothSites++
			}
		}
	}
	if bothSites == 0 {
		t.Fatal("no shared node was seen under both sites; the transfer moves are vacuous")
	}
	t.Logf("%d shared nodes seen under both sites", bothSites)
}

// checkAgainstFreshMemo compares the shared memo's answers for every node
// of plan with a fresh memo's.
func checkAgainstFreshMemo(t *testing.T, seed int64, step int, model *cost.Model, memo *cost.Memo, plan algebra.Node) {
	t.Helper()
	fresh := model.NewMemo()
	wantSt, errW := fresh.States(plan)
	gotSt, errG := memo.States(plan)
	if (errW != nil) != (errG != nil) {
		t.Fatalf("seed %d step %d: fresh memo error %v, shared memo error %v", seed, step, errW, errG)
	}
	if errW != nil {
		return // an invalid rewrite: both memos reject it alike
	}
	wantEs, err := fresh.Plan(plan)
	if err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	gotEs, err := memo.Plan(plan)
	if err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	algebra.Walk(plan, func(n algebra.Node, p algebra.Path) bool {
		if !reflect.DeepEqual(gotSt[n], wantSt[n]) {
			t.Errorf("seed %d step %d at %s (%s): state %+v, fresh %+v", seed, step, p, n.Label(), gotSt[n], wantSt[n])
		}
		if gotEs[n] != wantEs[n] {
			t.Errorf("seed %d step %d at %s (%s): estimate %+v, fresh %+v", seed, step, p, n.Label(), gotEs[n], wantEs[n])
		}
		if got, want := memo.Canonical(n), algebra.Canonical(n); got != want {
			t.Errorf("seed %d step %d at %s: canonical %q, fresh %q", seed, step, p, got, want)
		}
		return true
	})
}

// rewriteStep applies one random step at a random location of plan, or
// returns nil when the drawn step does not apply there.
func rewriteStep(rng *rand.Rand, plan algebra.Node, ruleSet []rules.Rule, memo *cost.Memo) algebra.Node {
	var paths []algebra.Path
	var nodes []algebra.Node
	var at []props.Site
	walkSitesPath(plan, props.Stratum, nil, func(n algebra.Node, s props.Site, p algebra.Path) {
		paths, nodes, at = append(paths, p), append(nodes, n), append(at, s)
	})
	i := rng.Intn(len(paths))
	n := nodes[i]
	var repl algebra.Node
	switch k := rng.Intn(4); {
	case k == 0 && at[i] == props.Stratum:
		repl = algebra.NewTransferS(n)
	case k == 0:
		repl = algebra.NewTransferD(n)
	case k == 1 && (n.Op() == algebra.OpTransferS || n.Op() == algebra.OpTransferD):
		repl = n.Children()[0]
	default:
		st, err := memo.States(plan)
		if err != nil {
			return nil
		}
		for _, j := range rng.Perm(len(ruleSet)) {
			if rw := ruleSet[j].Apply(n, st); rw != nil {
				repl = rw.Result
				break
			}
		}
	}
	if repl == nil {
		return nil
	}
	next, err := algebra.ReplaceAt(plan, paths[i], repl)
	if err != nil {
		return nil
	}
	return next
}

func walkSites(n algebra.Node, site props.Site, fn func(algebra.Node, props.Site)) {
	walkSitesPath(n, site, nil, func(n algebra.Node, s props.Site, _ algebra.Path) { fn(n, s) })
}

func walkSitesPath(n algebra.Node, site props.Site, path algebra.Path, fn func(algebra.Node, props.Site, algebra.Path)) {
	fn(n, site, path)
	child := props.ChildSite(n, site)
	for i, c := range n.Children() {
		walkSitesPath(c, child, path.Child(i), fn)
	}
}
