package enum

import (
	"fmt"
	"sort"

	"tqp/internal/algebra"
)

// BeamConfig controls the cost-guided beam search — the "heuristics ...
// necessary to achieve an efficient and effective optimizer" of the paper's
// future-work section. Instead of closing the plan space like Enumerate,
// each round expands the current beam by one guarded rewrite step and keeps
// the Width cheapest distinct plans; the search stops after Rounds rounds
// or when a round yields no new plan.
type BeamConfig struct {
	Config
	// Width is the beam width (default 16).
	Width int
	// Rounds bounds the search depth (default 24).
	Rounds int
}

// Beam runs the beam search from the initial plan, ranking plans by the
// cost model of Config.Memo, which must be priced. The returned Result
// lists every beam member ever visited (initial plan first) with
// provenance and scores; Result.Best picks the cheapest.
func Beam(initial algebra.Node, cfg BeamConfig) (*Result, error) {
	if cfg.Memo == nil || !cfg.Memo.Priced() {
		return nil, fmt.Errorf("enum: beam search needs a memo with a cost model")
	}
	width := cfg.Width
	if width <= 0 {
		width = 16
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 24
	}
	s, err := newSearch(initial, cfg.Config)
	if err != nil {
		return nil, err
	}
	type scored struct {
		plan  algebra.Node
		score float64
	}
	beam := []scored{{plan: initial, score: s.res.Scores[0]}}

	for round := 0; round < rounds; round++ {
		var candidates []scored
		for _, member := range beam {
			err := s.expand(member.plan, func(p algebra.Node, score float64) bool {
				candidates = append(candidates, scored{plan: p, score: score})
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Next beam: the cheapest Width of old beam ∪ candidates, so a
		// plateau can still be crossed while good plans are never lost.
		candidates = append(candidates, beam...)
		sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].score < candidates[j].score })
		if len(candidates) > width {
			candidates = candidates[:width]
		}
		beam = candidates
	}
	return s.res, nil
}
