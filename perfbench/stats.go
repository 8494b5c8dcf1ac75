package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile is the nearest-rank q-quantile of xs (q in (0, 1]); xs need not
// be sorted. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(q*float64(len(s))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// goStats is a snapshot of the Go runtime counters the benchmark reports.
type goStats struct {
	allocBytes, allocObjects, gcCycles, heapObjects uint64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

var goSamples = func() []metrics.Sample {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	return s
}()

// readGo reads the runtime counters; it is cheap enough to call per
// operation (no stop-the-world, unlike runtime.ReadMemStats) and allocates
// nothing. Only the benchmark's one driving goroutine calls it.
func readGo() goStats {
	samples := goSamples
	metrics.Read(samples)
	v := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	return goStats{allocBytes: v(0), allocObjects: v(1), gcCycles: v(2), heapObjects: v(3)}
}

// host is a snapshot of the interference the benchmark cannot control:
// time the hypervisor stole from this machine's CPUs, and this process's
// own CPU time.
type host struct {
	steal time.Duration // summed over all CPUs, from /proc/stat
	cpu   time.Duration // user + system of the whole process
}

// Linux's CPU-time clocks; both are exact to the nanosecond, including the
// slice the thread is running now.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func readHost() host {
	var h host
	if f, err := os.Open("/proc/stat"); err == nil {
		sc := bufio.NewScanner(f)
		if sc.Scan() {
			// "cpu  user nice system idle iowait irq softirq steal ..." in
			// clock ticks of 1/100 s.
			fields := strings.Fields(sc.Text())
			if len(fields) > 8 && fields[0] == "cpu" {
				if ticks, err := strconv.ParseInt(fields[8], 10, 64); err == nil {
					h.steal = time.Duration(ticks) * 10 * time.Millisecond
				}
			}
		}
		f.Close()
	}
	h.cpu = processCPU()
	return h
}
