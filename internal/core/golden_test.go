package core_test

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/equiv"
	"tqp/internal/rules"
	"tqp/internal/tsql"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/planner_golden.json from the current planner")

const goldenPath = "testdata/planner_golden.json"

// plannerRecord pins one planner run: the search's plan count, the best
// cost (float64, compared bit for bit — JSON keeps the shortest exact
// form), the chosen plan's canonical form, and the per-rule application
// and guard-rejection counts.
type plannerRecord struct {
	Corpus          string         `json:"corpus"`
	SQL             string         `json:"sql,omitempty"`
	PlanCount       int            `json:"plan_count"`
	BestCost        float64        `json:"best_cost"`
	Plan            string         `json:"plan"`
	Applications    map[string]int `json:"applications"`
	GuardRejections map[string]int `json:"guard_rejections"`
}

// prepareRecord plans sql on the Figure 1 catalog the way the server does
// (Prepare: the beam search) and takes the rule counts from the same
// search run through OptimizeBeam.
func prepareRecord(t *testing.T, corpus, sql string) plannerRecord {
	t.Helper()
	cat := catalog.Paper()
	opt := core.New(cat)
	prep, err := opt.Prepare(sql)
	if err != nil {
		t.Fatalf("%s: Prepare(%q): %v", corpus, sql, err)
	}
	q, err := tsql.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := q.Plan(cat)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := opt.OptimizeBeam(initial, q.ResultType(), q.OrderBy())
	if err != nil {
		t.Fatal(err)
	}
	return plannerRecord{
		Corpus: corpus, SQL: sql,
		PlanCount: prep.PlanCount, BestCost: prep.BestCost,
		Plan:            algebra.Canonical(prep.Plan),
		Applications:    ps.Enumeration.Applications,
		GuardRejections: ps.Enumeration.GuardRejections,
	}
}

// enumerateRecord runs the exhaustive Figure 5 enumeration (Optimize).
func enumerateRecord(t *testing.T, corpus string, initial algebra.Node, rs []rules.Rule) plannerRecord {
	t.Helper()
	cat := catalog.Paper()
	var opts []core.Option
	if rs != nil {
		opts = append(opts, core.WithRules(rs))
	}
	ps, err := core.New(cat, opts...).Optimize(initial, equiv.ResultList, nil)
	if err != nil {
		t.Fatalf("%s: %v", corpus, err)
	}
	return plannerRecord{
		Corpus: corpus, PlanCount: len(ps.All), BestCost: ps.BestCost,
		Plan:            algebra.Canonical(ps.Best),
		Applications:    ps.Enumeration.Applications,
		GuardRejections: ps.Enumeration.GuardRejections,
	}
}

// goldenRecords computes every record of the three corpora: the Figure 1
// query through Prepare, each SQL statement of the corpus through Prepare,
// and the plan sets of experiments E8 (the running example's initial plan)
// and E10 (its four rule-set ablations) through exhaustive enumeration.
func goldenRecords(t *testing.T, corpus []string) []plannerRecord {
	out := []plannerRecord{prepareRecord(t, "figure1", paperSQL)}
	for _, sql := range corpus {
		out = append(out, prepareRecord(t, "sql", sql))
	}
	cat := catalog.Paper()
	out = append(out, enumerateRecord(t, "e8", catalog.PaperInitialPlan(cat), nil))
	q, err := tsql.Parse(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := q.Plan(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		rules []rules.Rule
	}{
		{"full catalog", rules.All()},
		{"list rules only", rulesOfType(rules.All(), equiv.List)},
		{"no transfer rules", rulesWithout(rules.All(), "T")},
		{"no sort pushdown", rulesWithout(rules.All(), "S")},
	} {
		out = append(out, enumerateRecord(t, "e10: "+v.name, initial, v.rules))
	}
	return out
}

func rulesOfType(rs []rules.Rule, typ equiv.Type) []rules.Rule {
	var out []rules.Rule
	for _, r := range rs {
		if r.Type == typ {
			out = append(out, r)
		}
	}
	return out
}

func rulesWithout(rs []rules.Rule, prefix string) []rules.Rule {
	var out []rules.Rule
	for _, r := range rs {
		if !strings.HasPrefix(r.Name, prefix) {
			out = append(out, r)
		}
	}
	return out
}

// repoSQLCorpus collects every Go string literal in the repository that
// parses as a tsql statement and plans on the Figure 1 catalog, sorted and
// deduplicated.
func repoSQLCorpus(t *testing.T) []string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.Paper()
	set := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			s = strings.TrimSpace(s)
			q, err := tsql.Parse(s)
			if err != nil {
				return true
			}
			if _, err := q.Plan(cat); err == nil {
				set[s] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestPlannerGolden is the planner-parity gate: the plan count, the best
// cost (bit for bit), the chosen plan and the rule counts of every
// statement in testdata/planner_golden.json must be those recorded when
// the file was generated. The corpus is frozen in the file; run with
// -update to regenerate it from the current planner and the repository's
// current SQL literals.
func TestPlannerGolden(t *testing.T) {
	if *updateGolden {
		recs := goldenRecords(t, repoSQLCorpus(t))
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(recs), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []plannerRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var corpus []string
	for _, r := range want {
		if r.Corpus == "sql" {
			corpus = append(corpus, r.SQL)
		}
	}
	if len(corpus) == 0 {
		t.Fatal("golden file holds no SQL statements")
	}
	got := goldenRecords(t, corpus)
	if len(got) != len(want) {
		t.Fatalf("%d records, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s %q:\n got %+v\nwant %+v", want[i].Corpus, want[i].SQL, got[i], want[i])
		}
	}
}
