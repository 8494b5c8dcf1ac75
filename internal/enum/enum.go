// Package enum implements the query plan enumeration algorithm of Figure 5:
// a worklist fixpoint over a set of plans and a set of transformation rules,
// where a rule of equivalence type T may be applied at a location only when
// the operation properties of every participating operation permit T
// (package props). Per Theorem 6.1 the algorithm generates only correct
// plans; per the paper's remark it is deterministic — the generated set does
// not depend on the order of rules or locations.
//
// To terminate, the rule set must not contain expanding rules such as
// r →S rdup(r) (Section 6); the default configuration excludes them, and a
// plan cap bounds the walk regardless.
package enum

import (
	"fmt"
	"math"

	"tqp/internal/algebra"
	"tqp/internal/cost"
	"tqp/internal/equiv"
	"tqp/internal/props"
	"tqp/internal/rules"
)

// Config controls an enumeration run.
type Config struct {
	// Rules is the transformation-rule set; nil means the full non-expanding
	// catalog.
	Rules []rules.Rule
	// ResultType is the query's result type per Definition 5.1, which
	// seeds the property inference at the root.
	ResultType equiv.ResultType
	// MaxPlans caps the number of generated plans (0 = 4096). The cap is a
	// safety net; if it is hit, Result.Capped is set and determinism across
	// rule orders is no longer guaranteed.
	MaxPlans int
	// IncludeExpanding admits expanding rules (plan-growing); use only with
	// a tight MaxPlans.
	IncludeExpanding bool
	// Memo is the search's memo of states, estimates and canonical forms.
	// Every plan a rewrite produces shares its untouched subtrees with its
	// parent, so through the memo only the rewritten spine is inferred,
	// costed and rendered. A memo with a cost model (cost.Model.NewMemo)
	// prices every plan into Result.Scores; nil starts an empty memo
	// without one. Beam requires a priced memo. A memo serves one search
	// at a time; a caller may keep it after the search to price plans
	// built from the search's plans.
	Memo *cost.Memo
}

// Step records how a plan was derived.
type Step struct {
	// Parent is the canonical form of the plan the rule was applied to.
	Parent string
	// Rule is the name of the applied rule.
	Rule string
	// RuleType is the rule's equivalence type.
	RuleType equiv.Type
	// Path locates the rewritten node in the parent plan.
	Path algebra.Path
}

// Result is the outcome of an enumeration.
type Result struct {
	// Plans holds every generated plan, the initial plan first, in
	// discovery order.
	Plans []algebra.Node
	// Scores holds each plan's estimated cost, parallel to Plans, when the
	// search was priced (Config.Memo carries a cost model); nil otherwise.
	Scores []float64
	// Provenance maps each plan's canonical form to the step that first
	// produced it (absent for the initial plan).
	Provenance map[string]Step
	// GuardRejections counts, per rule, how many syntactic matches the
	// property guard of Figure 5 rejected.
	GuardRejections map[string]int
	// Applications counts, per rule, how many times it produced a plan
	// (including rediscoveries of known plans).
	Applications map[string]int
	// Capped reports that MaxPlans stopped the fixpoint early.
	Capped bool
}

// Best returns the cheapest plan by its recorded score, and the score: the
// first plan strictly cheaper than every plan before it, the tie-break of
// cost.Model.Best.
func (r *Result) Best() (algebra.Node, float64, error) {
	if len(r.Scores) != len(r.Plans) || len(r.Plans) == 0 {
		return nil, 0, fmt.Errorf("enum: the search priced no plans")
	}
	var best algebra.Node
	bestCost := math.Inf(1)
	for i, c := range r.Scores {
		if c < bestCost {
			best, bestCost = r.Plans[i], c
		}
	}
	return best, bestCost, nil
}

// search is one enumeration run's shared state: the rule set, the memo,
// the result it grows, and the rule counts of each plan expanded so far.
type search struct {
	cfg      Config
	rules    []rules.Rule
	memo     *cost.Memo
	res      *Result
	initKey  string
	expanded map[algebra.Node]*counts
}

// counts lists the rules one complete expansion applied and the rules the
// guard rejected, one entry per event.
type counts struct {
	applied, rejected []string
}

// newSearch validates the initial plan and starts a result holding it.
func newSearch(initial algebra.Node, cfg Config) (*search, error) {
	if err := algebra.Validate(initial); err != nil {
		return nil, fmt.Errorf("enum: invalid initial plan: %w", err)
	}
	ruleSet := cfg.Rules
	if ruleSet == nil {
		ruleSet = rules.All()
	}
	if !cfg.IncludeExpanding {
		ruleSet = rules.NonExpanding(ruleSet)
	}
	memo := cfg.Memo
	if memo == nil {
		memo = cost.NewMemo(nil)
	}
	s := &search{
		cfg:   cfg,
		rules: ruleSet,
		memo:  memo,
		res: &Result{
			Plans:           []algebra.Node{initial},
			Provenance:      make(map[string]Step),
			GuardRejections: make(map[string]int),
			Applications:    make(map[string]int),
		},
		initKey:  memo.Canonical(initial),
		expanded: make(map[algebra.Node]*counts),
	}
	if memo.Priced() {
		c, err := memo.Cost(initial)
		if err != nil {
			return nil, err
		}
		s.res.Scores = []float64{c}
	}
	return s, nil
}

// expand applies every rule at every location of plan — one step of the
// Figure 5 fixpoint — recording applications and guard rejections. Each
// plan not seen before joins the result (with its score, when priced) and
// is passed to found; found returning false ends the expansion at once.
//
// Expanding a plan again (a beam member that survives a round) adds its
// rule counts again but cannot find a new plan: every plan it derives was
// recorded by the first, complete expansion. So a repeat replays the
// recorded counts instead of re-deriving them.
func (s *search) expand(plan algebra.Node, found func(p algebra.Node, score float64) bool) error {
	memo, res := s.memo, s.res
	if c, ok := s.expanded[plan]; ok {
		for _, r := range c.applied {
			res.Applications[r]++
		}
		for _, r := range c.rejected {
			res.GuardRejections[r]++
		}
		return nil
	}
	c := &counts{}
	planKey := memo.Canonical(plan)
	st, err := memo.States(plan)
	if err != nil {
		return fmt.Errorf("enum: state inference: %w", err)
	}
	pm, err := props.Infer(plan, s.cfg.ResultType, st)
	if err != nil {
		return fmt.Errorf("enum: property inference: %w", err)
	}
	// stopped is set when found ends the expansion or a step fails (err).
	stopped := false
	algebra.Walk(plan, func(node algebra.Node, path algebra.Path) bool {
		for i := range s.rules {
			rule := &s.rules[i]
			if stopped {
				return false
			}
			rewrite := rule.Apply(node, st)
			if rewrite == nil {
				continue
			}
			if !guardAllows(rule, rewrite, pm) {
				res.GuardRejections[rule.Name]++
				c.rejected = append(c.rejected, rule.Name)
				continue
			}
			var newPlan algebra.Node
			if newPlan, err = algebra.ReplaceAt(plan, path, rewrite.Result); err != nil {
				stopped = true
				continue
			}
			res.Applications[rule.Name]++
			c.applied = append(c.applied, rule.Name)
			// A rediscovered plan is structurally equal to a plan already
			// validated, so only a new plan needs inferring (and pricing).
			key := memo.Canonical(newPlan)
			if _, known := res.Provenance[key]; known || key == s.initKey {
				continue
			}
			if _, err = memo.State(newPlan, props.Stratum); err != nil {
				err = fmt.Errorf("enum: rule %s at %s produced invalid plan: %w", rule.Name, path, err)
				stopped = true
				continue
			}
			score := 0.0
			if res.Scores != nil {
				if score, err = memo.Cost(newPlan); err != nil {
					stopped = true
					continue
				}
				res.Scores = append(res.Scores, score)
			}
			res.Plans = append(res.Plans, newPlan)
			res.Provenance[key] = Step{
				Parent:   planKey,
				Rule:     rule.Name,
				RuleType: rule.Type,
				Path:     path.Clone(),
			}
			stopped = !found(newPlan, score)
		}
		return !stopped
	})
	if err != nil {
		return err
	}
	if !stopped {
		s.expanded[plan] = c
	}
	return nil
}

// Enumerate runs the Figure 5 algorithm from the initial plan.
func Enumerate(initial algebra.Node, cfg Config) (*Result, error) {
	s, err := newSearch(initial, cfg)
	if err != nil {
		return nil, err
	}
	maxPlans := cfg.MaxPlans
	if maxPlans <= 0 {
		maxPlans = 4096
	}
	res := s.res
	for i := 0; i < len(res.Plans) && !res.Capped; i++ {
		err := s.expand(res.Plans[i], func(algebra.Node, float64) bool {
			res.Capped = len(res.Plans) >= maxPlans
			return !res.Capped
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// guardAllows implements the applicability condition of Figure 5: every
// participating operation's properties must permit the rule's equivalence
// type.
func guardAllows(rule *rules.Rule, rewrite *rules.Rewrite, pm props.PropsMap) bool {
	ps := make([]props.Props, 0, len(rewrite.Participants))
	for _, p := range rewrite.Participants {
		prop, ok := pm[p]
		if !ok {
			// A participant outside the current plan (should not happen);
			// be conservative.
			return false
		}
		ps = append(ps, prop)
	}
	return props.Applicable(rule.Type, ps)
}

// Derivation reconstructs the chain of steps that produced the given plan,
// earliest step first.
func (r *Result) Derivation(plan algebra.Node) []Step {
	var out []Step
	key := algebra.Canonical(plan)
	for {
		step, ok := r.Provenance[key]
		if !ok {
			break
		}
		out = append([]Step{step}, out...)
		key = step.Parent
	}
	return out
}
