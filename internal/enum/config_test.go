package enum_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/props"
	"tqp/internal/rules"
)

// TestPlanCap: a tiny cap stops the fixpoint and flags the result.
func TestPlanCap(t *testing.T) {
	c := catalog.Paper()
	res, err := enum.Enumerate(catalog.PaperInitialPlan(c), enum.Config{
		ResultType: equiv.ResultList,
		MaxPlans:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || len(res.Plans) != 5 {
		t.Errorf("capped=%v plans=%d, want capped at 5", res.Capped, len(res.Plans))
	}
}

// TestExpandingRulesExcludedByDefault: the enumerator must terminate on the
// full catalog because expanding rules (r →S rdup(r), r →SM coalT(r)) are
// filtered out — with them admitted and a cap, plans grow.
func TestExpandingRulesExcludedByDefault(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	base, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultSet})
	if err != nil {
		t.Fatal(err)
	}
	if base.Capped {
		t.Fatal("default enumeration must terminate without the cap")
	}
	withExpanding, err := enum.Enumerate(initial, enum.Config{
		ResultType:       equiv.ResultSet,
		IncludeExpanding: true,
		MaxPlans:         len(base.Plans) + 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(withExpanding.Plans) <= len(base.Plans) {
		t.Errorf("expanding rules should reach more plans: %d vs %d",
			len(withExpanding.Plans), len(base.Plans))
	}
}

// TestProvenanceChains: every non-initial plan has a derivation that walks
// back to the initial plan.
func TestProvenanceChains(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	initialKey := algebra.Canonical(initial)
	for i, p := range res.Plans {
		steps := res.Derivation(p)
		if i == 0 {
			if len(steps) != 0 {
				t.Error("the initial plan has no derivation")
			}
			continue
		}
		if len(steps) == 0 {
			t.Fatalf("plan %d has no provenance", i)
		}
		if steps[0].Parent != initialKey {
			t.Fatalf("plan %d's derivation does not start at the initial plan", i)
		}
	}
}

// TestRestrictedRuleSets: with only the sorting rules, the reachable space
// is tiny and every plan still validates.
func TestRestrictedRuleSets(t *testing.T) {
	c := catalog.Paper()
	res, err := enum.Enumerate(catalog.PaperInitialPlan(c), enum.Config{
		ResultType: equiv.ResultList,
		Rules:      rules.SortRules(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) < 2 {
		t.Errorf("sort rules alone should still move the sort: %d plans", len(res.Plans))
	}
	for _, p := range res.Plans {
		if err := algebra.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvalidInitialPlanRejected: enumeration refuses to start from a plan
// that does not validate.
func TestInvalidInitialPlanRejected(t *testing.T) {
	c := catalog.Paper()
	bad := algebra.NewTRdup(algebra.NewProjectCols(c.MustNode("EMPLOYEE"), "EmpName"))
	if _, err := enum.Enumerate(bad, enum.Config{ResultType: equiv.ResultList}); err == nil {
		t.Error("invalid initial plan must be rejected")
	}
}

// TestInvalidRewriteRejected: a rule whose rewrite does not validate fails
// the search with the rule and location named, for both searches.
func TestInvalidRewriteRejected(t *testing.T) {
	c := catalog.Paper()
	bad := rules.Rule{
		Name: "BAD",
		Type: equiv.List,
		Apply: func(n algebra.Node, _ props.States) *rules.Rewrite {
			if n.Op() != algebra.OpRel {
				return nil
			}
			// A projection onto an attribute the relation lacks.
			return &rules.Rewrite{
				Result:       algebra.NewProjectCols(n, "NoSuchAttr"),
				Participants: []algebra.Node{n},
			}
		},
	}
	cfg := enum.Config{ResultType: equiv.ResultList, Rules: []rules.Rule{bad}}
	_, err := enum.Enumerate(catalog.PaperInitialPlan(c), cfg)
	if err == nil || !strings.Contains(err.Error(), "rule BAD") {
		t.Errorf("Enumerate: got %v, want the invalid rewrite of rule BAD reported", err)
	}
	cfg.Memo = cost.New(c, cost.DefaultParams()).NewMemo()
	_, err = enum.Beam(catalog.PaperInitialPlan(c), enum.BeamConfig{Config: cfg})
	if err == nil || !strings.Contains(err.Error(), "rule BAD") {
		t.Errorf("Beam: got %v, want the invalid rewrite of rule BAD reported", err)
	}
}
