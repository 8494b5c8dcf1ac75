// Command perfbench is the repository's end-to-end and per-layer benchmark:
// four seeded workloads driven through the program's Go API by one
// closed-loop client, with every output checked. See README.md.
//
//	bash perfbench/run.sh --workload paper-warm --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, from a separate traced replay of the same operations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs. Times are process CPU time at a reference host speed (see
// probe.go), not wall-clock time: on a shared host other tenants steal
// this machine's CPUs and slow its caches in bursts that moved wall-clock
// latency by up to 2x between identical runs, while the CPU an operation
// costs at reference speed stays within a few percent. Wall-clock figures,
// the steal and the host speed are printed beside them as diagnostics.
// live_heap_mb is the heap the workload's state holds after a full
// collection at the end of the pass; the transient peak, which depends on
// when collections happen to run, is a diagnostic.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"cpu_p50_ms", "ms"},
	{"cpu_p90_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs. Every
// workload reports every name; a layer a workload does not call reads 0.
var perLayer = []metricDef{
	{"tsql.parse_us", "us"},
	{"core.prepare_ms", "ms"},
	{"core.plans_enumerated", "count"},
	{"core.rule_applications", "count"},
	{"core.guard_rejections", "count"},
	{"core.alloc_mb_per_prepare", "MB"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.queue_ms", "ms"},
	{"server.plan_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"wire.client_ms", "ms"},
	{"wire.bytes_per_query", "bytes"},
	{"stratum.execute_ms", "ms"},
	{"stratum.tuples_transferred", "count"},
	{"stratum.dbms_units", "units"},
	{"stratum.stratum_units", "units"},
	{"dbms.statements", "count"},
	{"exec.eval_ms", "ms"},
	{"exec.rows_out", "count"},
	{"exec.batches", "count"},
	{"coord.query_ms", "ms"},
	{"coord.frontend_ms", "ms"},
	{"coord.split_ms", "ms"},
	{"coord.fragments", "count"},
	{"coord.shards", "count"},
	{"store.open_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.append_p50_ms", "ms"},
	{"store.append_p90_ms", "ms"},
	{"store.segments", "count"},
	{"store.bytes_written", "bytes"},
	{"store.disk_bytes_per_row", "bytes"},
	{"catalog.scan_ms", "ms"},
	{"catalog.segments_scanned", "count"},
	{"catalog.segments_skipped", "count"},
	{"go.cpu_ms_per_op", "ms"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"tsql.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"server.self_ms", "ms"},
	{"wire.self_ms", "ms"},
	{"stratum.self_ms", "ms"},
	{"exec.self_ms", "ms"},
	{"coord.self_ms", "ms"},
	{"store.self_ms", "ms"},
	{"catalog.self_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// selfLayers are the span-name prefixes whose self time is reported as
// <layer>.self_ms per operation.
var selfLayers = []string{"tsql", "core", "server", "wire", "stratum", "exec", "coord", "store", "catalog"}

// maxSetups caps the set-up repetitions of one run.
const maxSetups = 200

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for stores and span files
	ops      int    // operations per measured pass; 0 = derived from seconds (tests set it)
	setups   int    // minimum set-ups per untraced run; 0 = 5 (tests set it)
}

type opKind int

const (
	opRead opKind = iota
	opAppend
)

// bench is one set-up instance of a workload: a server, fleet or store
// ready for operations.
type bench interface {
	// kind reports whether operation i reads or appends.
	kind(i int) opKind
	// do runs operation i and returns its cost, measured around the public
	// call that is the operation. Output checks run after the timed call; a
	// failed or wrong operation returns an error. With a non-nil tracer it
	// also records spans and replays the operation's layer calls.
	do(i int, t *tracer) (cost, error)
	// finish runs the end-of-run output and mechanism checks over n
	// operations and fills m with the per-layer figures it gathered (the
	// timed ones only on a traced pass).
	finish(n int, t *tracer, m map[string]float64) error
	close()
}

// workload builds benches. rate is the number of operations per second of
// -seconds: a run is a fixed operation sequence of rate×seconds operations
// drawn from the seed, sized to take about -seconds on a 2-vCPU host. Why
// each workload exists is in README.md and BENCHMARK.json.
type workload struct {
	name   string
	rate   float64
	warm   int  // warm-up operations before each measured pass
	inline bool // operations do all their work in the calling goroutine
	setup  func(cfg config, t *tracer) (bench, error)
}

var workloads = []workload{
	{"paper-warm", 2500, 700, false, setupPaperWarm},
	{"paper-cold", 26, 10, false, setupPaperCold},
	{"sharded-scan", 80, 25, false, setupSharded},
	{"ingest-travel", 110, 14, true, setupIngest},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// passResult is what one measured pass over the operation sequence yields.
// The per-operation slices are parallel, in operation order.
type passResult struct {
	attempted, failed int
	wall, cpu, own    []float64 // ms, per operation (see cost)
	norm, ownNorm     []float64 // cpu and own at the reference host speed
	append, ok        []bool
	total             cost
	speed             float64   // mean host speed over the pass (1 = reference)
	heap              []float64 // MB in use after each operation
	liveHeap          float64   // MB in use after a full collection at the end
	goBefore, goAfter goStats
	hostBefore        host
	hostAfter         host
	errs              []string
}

// measure runs operations 0..n-1 on b. It stops early only if the pass
// overruns limit, so a stalled host still ends the run in time. Untraced
// passes bracket slices of operations with calibration probes.
func measure(b bench, n int, t *tracer, limit time.Duration) passResult {
	var r passResult
	runtime.GC()
	var sp *speedometer
	if t == nil {
		sp = newSpeedometer()
	}
	r.goBefore, r.hostBefore = readGo(), readHost()
	began := time.Now()
	for i := 0; i < n; i++ {
		if time.Since(began) > limit {
			r.errs = append(r.errs, fmt.Sprintf("pass overran %v after %d of %d operations", limit, i, n))
			break
		}
		t.startOp(i)
		root := t.begin("op")
		c, err := b.do(i, t)
		t.end(root)
		r.attempted++
		r.total = r.total.plus(c)
		r.wall = append(r.wall, ms(c.wall))
		r.cpu = append(r.cpu, ms(c.cpu))
		r.own = append(r.own, ms(c.own))
		r.append = append(r.append, b.kind(i) == opAppend)
		r.ok = append(r.ok, err == nil)
		if sp != nil {
			sp.add(c.wall)
		}
		if err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, fmt.Sprintf("op %d: %v", i, err))
			}
		}
		r.heap = append(r.heap, float64(readGo().heapObjects)/(1<<20))
	}
	r.goAfter, r.hostAfter = readGo(), readHost()
	if sp != nil {
		r.norm, r.ownNorm = slices.Clone(r.cpu), slices.Clone(r.own)
		r.speed = sp.normalize(r.norm, r.ownNorm)
	}
	runtime.GC()
	r.liveHeap = float64(readGo().heapObjects) / (1 << 20)
	return r
}

// pick returns the figures xs of the successful operations that append
// (appends) or read (!appends).
func (r *passResult) pick(xs []float64, appends bool) []float64 {
	var out []float64
	for i, x := range xs {
		if r.ok[i] && r.append[i] == appends {
			out = append(out, x)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// run executes one benchmark invocation and returns the result line's
// fields plus diagnostics.
func run(cfg config) (correct bool, attempted, failed int, metrics map[string]float64, diag map[string]any, err error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return false, 0, 0, nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// An inline workload's reads are timed by their own thread's CPU clock
	// (the goroutine stays locked to it for the run). The process clock
	// would add the collector's background workers, whose CPU lands on
	// whichever read happens to be running when they do; that is most of
	// the read-to-read noise on ingest-travel, where appends keep the
	// collector busy. Throughput still counts the whole process.
	if w.inline {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	n := cfg.ops
	if n <= 0 {
		n = int(w.rate*cfg.seconds + 0.5)
	}
	if n < 8 {
		n = 8
	}
	limit := time.Duration(cfg.seconds*float64(time.Second))*4 + 20*time.Second
	if limit > 100*time.Second {
		limit = 100 * time.Second
	}
	// Set-up repeats at least setups times and for at least setupBudget, so
	// that the median of even a sub-millisecond set-up is steady.
	setups := cfg.setups
	setupBudget := min(2*time.Second, time.Duration(cfg.seconds*float64(time.Second)/5))
	if setups <= 0 {
		setups = 5
	}
	if cfg.trace {
		setups, setupBudget = 1, 0
	}

	// Untraced pass: the end-to-end figures (and, for a traced run, the
	// baseline the tracing overhead is measured against). Set-ups are
	// measured like operations: CPU time at the reference host speed, from
	// the probes on either side.
	began := time.Now()
	var setupNorm, setupWall []float64
	var b bench
	before := probe()
	for k := 0; k < setups || (time.Since(began) < setupBudget && k < maxSetups); k++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		c, _ := timed(nil, "", func() { b, err = w.setup(cfg, nil) })
		if err != nil {
			return false, 0, 0, nil, nil, fmt.Errorf("setup: %w", err)
		}
		after := probe()
		setupNorm = append(setupNorm, c.cpu.Seconds()*float64(probeNominal)/(float64(before+after)/2))
		setupWall = append(setupWall, c.wall.Seconds())
		before = after
	}
	if err := warmUp(b, w.warm); err != nil {
		return false, 0, 0, nil, nil, err
	}
	plain := measure(b, n, nil, limit)
	plainLayers := make(map[string]float64)
	checkErr := b.finish(plain.attempted, nil, plainLayers)
	b.close()

	// Diagnostics: host interference, and the raw wall-clock figures the
	// end-to-end metrics are steadier stand-ins for.
	reads, readsWall := plain.pick(plain.norm, false), plain.pick(plain.wall, false)
	if w.inline {
		reads = plain.pick(plain.ownNorm, false)
	}
	diag = map[string]any{
		"ops":          n,
		"reads":        len(reads),
		"setups":       len(setupNorm),
		"setup_wall_s": median(setupWall),
		"host_speed":   plain.speed,
		"steal_s":      (plain.hostAfter.steal - plain.hostBefore.steal).Seconds(),
		"cpu_s":        (plain.hostAfter.cpu - plain.hostBefore.cpu).Seconds(),
		"gc_cycles":    plain.goAfter.gcCycles - plain.goBefore.gcCycles,
		"error_rate":   float64(plain.failed) / float64(max(plain.attempted, 1)),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"run_errors":   plain.errs,
		"wall_qps":     float64(plain.attempted) / plain.total.wall.Seconds(),
		"wall_p50_ms":  quantile(readsWall, 0.5),
		"wall_p90_ms":  quantile(readsWall, 0.9),
		"peak_heap_mb": peakHeap(plain.heap, heapRounds),
	}
	// The highest percentile reported is the one with at least ten samples
	// beyond it.
	if len(reads) >= 1000 {
		diag["cpu_p99_ms"] = quantile(reads, 0.99)
		diag["wall_p99_ms"] = quantile(readsWall, 0.99)
	}
	if appends := plain.pick(plain.norm, true); len(appends) > 0 {
		diag["appends"] = len(appends)
		diag["append_cpu_p50_ms"] = quantile(appends, 0.5)
		diag["append_cpu_p90_ms"] = quantile(appends, 0.9)
		diag["append_wall_p50_ms"] = quantile(plain.pick(plain.wall, true), 0.5)
		diag["append_wall_p90_ms"] = quantile(plain.pick(plain.wall, true), 0.9)
		diag["disk_bytes_per_row"] = plainLayers["store.disk_bytes_per_row"]
	}
	attempted, failed = plain.attempted, plain.failed
	correct = plain.failed == 0 && checkErr == nil && plain.attempted == n
	if checkErr != nil {
		diag["check_error"] = checkErr.Error()
	}
	if !cfg.trace {
		metrics = map[string]float64{
			"setup_s":       groupedMedian(setupNorm, 5),
			"ops_per_cpu_s": float64(plain.attempted) / (sum(plain.norm) / 1000),
			"cpu_p50_ms":    quantile(reads, 0.5),
			"cpu_p90_ms":    quantile(reads, 0.9),
			"live_heap_mb":  plain.liveHeap,
		}
		return correct, attempted, failed, metrics, diag, nil
	}

	// Traced pass: a fresh set-up replays the same operations with spans
	// around every layer call.
	t := newTracer()
	if b, err = w.setup(cfg, t); err != nil {
		return false, 0, 0, nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	if err := warmUp(b, w.warm); err != nil {
		return false, 0, 0, nil, nil, err
	}
	traced := measure(b, n, t, limit)
	metrics = make(map[string]float64, len(perLayer))
	tcheck := b.finish(traced.attempted, t, metrics)
	b.close()
	attempted += traced.attempted
	failed += traced.failed
	correct = correct && traced.failed == 0 && tcheck == nil && traced.attempted == n
	if tcheck != nil {
		diag["traced_check_error"] = tcheck.Error()
	}
	diag["traced_errors"] = traced.errs

	// Runtime figures come from the untraced pass: they describe the
	// program, not the tracing.
	ops := float64(max(plain.attempted, 1))
	metrics["go.cpu_ms_per_op"] = ms(plain.total.cpu) / ops
	metrics["go.alloc_bytes_per_op"] = float64(plain.goAfter.allocBytes-plain.goBefore.allocBytes) / ops
	metrics["go.allocs_per_op"] = float64(plain.goAfter.allocObjects-plain.goBefore.allocObjects) / ops
	metrics["go.gc_cycles"] = float64(plain.goAfter.gcCycles - plain.goBefore.gcCycles)
	metrics["store.append_p50_ms"] = quantile(plain.pick(plain.wall, true), 0.5)
	metrics["store.append_p90_ms"] = quantile(plain.pick(plain.wall, true), 0.9)
	self := t.selfTimes()
	for _, layer := range selfLayers {
		var d time.Duration
		for name, s := range self {
			if strings.HasPrefix(name, layer+".") {
				d += s
			}
		}
		metrics[layer+".self_ms"] = ms(d) / float64(max(traced.attempted, 1))
	}
	// Tracing overhead: the CPU the operations' own calls cost with tracing
	// on (spans around them, the server's query log into memory) against
	// the same operations untraced. Replays and checks are outside both.
	if plain.total.cpu > 0 {
		metrics["trace.overhead_pct"] = 100 * (traced.total.cpu.Seconds() - plain.total.cpu.Seconds()) / plain.total.cpu.Seconds()
	}
	spanFile := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := t.write(spanFile); err != nil {
		return false, 0, 0, nil, nil, err
	}
	diag["spans"] = len(t.spans)
	diag["span_file"] = spanFile
	return correct, attempted, failed, metrics, diag, nil
}

// heapRounds is the number of consecutive stretches a pass's heap samples
// are cut into for peak_heap_mb.
const heapRounds = 10

// peakHeap is the median over k consecutive stretches of the operations of
// each stretch's peak heap. The single largest sample depends on whether a
// garbage collection happened to run just before it; the peak of a typical
// stretch does not.
func peakHeap(samples []float64, k int) float64 {
	if len(samples) < k {
		k = 1
	}
	peaks := make([]float64, k)
	for g := range peaks {
		for _, h := range samples[g*len(samples)/k : (g+1)*len(samples)/k] {
			peaks[g] = max(peaks[g], h)
		}
	}
	return median(peaks)
}

// groupedMedian cuts xs into k consecutive groups and returns the median of
// the group means. A set-up sometimes does and sometimes does not run into
// a garbage collection, so single set-up times come in two clusters and a
// plain median jumps between them; group means average the clusters out.
func groupedMedian(xs []float64, k int) float64 {
	if len(xs) < k {
		return median(xs)
	}
	means := make([]float64, k)
	for g := range means {
		part := xs[g*len(xs)/k : (g+1)*len(xs)/k]
		means[g] = sum(part) / float64(len(part))
	}
	return median(means)
}

// warmUp runs n warm-up operations (negative indices: reads that leave the
// workload's state as it was) and collects garbage before timing.
func warmUp(b bench, n int) error {
	for i := 0; i < n; i++ {
		if _, err := b.do(-1-i, nil); err != nil {
			b.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	return nil
}

// resultLine renders the final JSON object with every metric of defs.
func resultLine(correct bool, attempted, failed int, metrics map[string]float64, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	return json.Marshal(out)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "intended length of one measured pass")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced replay")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for stores and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := findWorkload(cfg.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be one of %s\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	correct, attempted, failed, metrics, diag, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	d, _ := json.Marshal(diag)
	fmt.Printf("# %s seed=%d trace=%v diagnostics %s\n", cfg.workload, cfg.seed, cfg.trace, d)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := resultLine(correct, attempted, failed, metrics, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}
