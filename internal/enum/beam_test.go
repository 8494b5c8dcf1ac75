package enum_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/enum"
	"tqp/internal/equiv"
)

// TestBeamMatchesExhaustiveBest: on the paper query the beam search must
// reach the same best cost as the exhaustive Figure 5 closure while
// visiting fewer plans.
func TestBeamMatchesExhaustiveBest(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	model := cost.New(c, cost.DefaultParams())

	full, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	_, fullBest, err := model.Best(full.Plans)
	if err != nil {
		t.Fatal(err)
	}

	beam, err := enum.Beam(initial, enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList, Memo: model.NewMemo()},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, beamBest, err := model.Best(beam.Plans)
	if err != nil {
		t.Fatal(err)
	}
	if beamBest > fullBest*1.001 {
		t.Errorf("beam best %.1f worse than exhaustive best %.1f", beamBest, fullBest)
	}
	if len(beam.Plans) >= len(full.Plans) {
		t.Errorf("beam visited %d plans, exhaustive %d — no saving", len(beam.Plans), len(full.Plans))
	}
	t.Logf("beam visited %d plans vs %d exhaustive; best %.1f vs %.1f",
		len(beam.Plans), len(full.Plans), beamBest, fullBest)
}

// TestBeamPlansAreCorrect: beam-search plans obey the same guard, so every
// visited plan is still ≡SQL to the initial one (spot check: evaluating the
// best one equals the reference).
func TestBeamPlansAreCorrect(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	model := cost.New(c, cost.DefaultParams())
	beam, err := enum.Beam(initial, enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList, Memo: model.NewMemo()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range beam.Plans {
		if err := algebra.Validate(p); err != nil {
			t.Fatalf("beam produced an invalid plan: %v", err)
		}
	}
	if beam.GuardRejections["S2"] == 0 {
		t.Error("the guard must still gate the beam search")
	}
}

func TestBeamNeedsScore(t *testing.T) {
	c := catalog.Paper()
	if _, err := enum.Beam(catalog.PaperInitialPlan(c), enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList},
	}); err == nil {
		t.Error("beam without a cost model must fail")
	}
}
