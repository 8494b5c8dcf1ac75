package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tqp/internal/datagen"
)

// tiny is a run small enough for a unit test: a few operations, one quick
// set-up, traced or not.
func tiny(t *testing.T, workload string, seed int64, trace bool) (map[string]float64, bool) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 0.05, trace: trace, dir: t.TempDir(), ops: 16, setups: 1}
	correct, attempted, failed, metrics, diag, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if attempted == 0 || failed != 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed; diagnostics %v", workload, seed, trace, failed, attempted, diag)
	}
	return metrics, correct
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and emits, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark runs %d", names, len(workloads))
	}
	check := func(kind string, declared map[string]string, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
		}
		for _, m := range emitted {
			unit, ok := declared[m.name]
			switch {
			case !ok:
				t.Errorf("%s: %s is emitted but not declared", kind, m.name)
			case unit != m.unit:
				t.Errorf("%s: %s is declared in %q but emitted in %q", kind, m.name, unit, m.unit)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, endToEnd)
	layers := make(map[string]string)
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("per_layer", layers, perLayer)
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced and
// traced, and checks that each run sets every metric of its kind (a
// missing one would otherwise be printed as a silent 0) and passes its own
// output and mechanism checks.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			metrics, correct := tiny(t, w.name, 1, trace)
			if !correct {
				t.Errorf("%s trace %v: run reported incorrect output", w.name, trace)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := metrics[d.name]; !ok {
					t.Errorf("%s trace %v: metric %s not set", w.name, trace, d.name)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, metrics[d.name])
					}
				}
			}
		}
	}
}

// isCount reports a per-layer metric that counts work rather than timing
// it: those must repeat exactly for one seed. The Go runtime's counters
// are excluded; allocation and collection vary run to run.
func isCount(d metricDef) bool {
	if strings.HasPrefix(d.name, "go.") {
		return false
	}
	switch d.unit {
	case "count", "units", "bytes", "ratio":
		return true
	}
	return false
}

// TestCountsRepeat checks that two traced runs with one seed report
// exactly the same counts on every workload.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, _ := tiny(t, w.name, 7, true)
		b, _ := tiny(t, w.name, 7, true)
		for _, d := range perLayer {
			if isCount(d) && a[d.name] != b[d.name] {
				t.Errorf("%s: %s = %v then %v with one seed", w.name, d.name, a[d.name], b[d.name])
			}
		}
	}
}

// TestSeedChangesInputsNotNames checks that another seed draws other
// inputs on every workload while the set of reported metrics stays the
// same.
func TestSeedChangesInputsNotNames(t *testing.T) {
	order := func(seed int64, k int) []int {
		r := newRotation(k, seed)
		var out []int
		for i := 0; i < 4*k; i++ {
			out = append(out, r.at(i))
		}
		return out
	}
	if equalInts(order(1, len(paperWarm)), order(2, len(paperWarm))) {
		t.Error("paper-warm: seeds 1 and 2 give one statement order")
	}
	if equalInts(order(1, len(shardedShapes)), order(2, len(shardedShapes))) {
		t.Error("sharded-scan: seeds 1 and 2 give one statement order")
	}
	cold := func(seed int64) string {
		b, err := setupPaperCold(config{seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		return b.(*paperBench).sql(0)
	}
	if cold(1) == cold(2) {
		t.Error("paper-cold: seeds 1 and 2 give one statement")
	}
	fp := func(seed int64) string {
		return datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 50, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: seed}).Fingerprint()
	}
	if fp(1) == fp(2) {
		t.Error("sharded-scan: seeds 1 and 2 give one database")
	}
	if chunk(1, 0, 8)[0] == chunk(2, 0, 8)[0] {
		t.Error("ingest-travel: seeds 1 and 2 give one history")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			a, _ := tiny(t, w.name, 1, trace)
			b, _ := tiny(t, w.name, 2, trace)
			if ka, kb := keys(a), keys(b); !equalStrings(ka, kb) {
				t.Errorf("%s trace %v: seed 1 reports %v, seed 2 reports %v", w.name, trace, ka, kb)
			}
		}
	}
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool { return strings.Join(a, "\x00") == strings.Join(b, "\x00") }
