package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The calibration probe is a fixed piece of CPU- and memory-bound work
// that is independent of the program under test. Measured passes run it
// between slices of operations. The ratio of its CPU time on a quiet host
// (probeNominal) to its CPU time now is the host's current speed, and each
// operation's CPU time is scaled by the speed around the slice it ran in.
// CPU time already excludes what the hypervisor steals; the scaling takes
// out the rest of what other tenants do to this machine (shared cores and
// caches slow every instruction). A program that does more work still
// reads slower.
const (
	probeKeys    = 1 << 14 // sorted, then looked up in an open-addressed table
	probeTable   = 1 << 16
	probeChain   = 1 << 16                 // uint32 slots
	probeSteps   = 1 << 16                 // dependent random loads along the chain
	probeNominal = 2500 * time.Microsecond // the probe's CPU time on a quiet host
	probeSlice   = 25 * time.Millisecond
)

// probeState lives in memory mapped outside the Go heap, so the probe adds
// nothing to live_heap_mb and no work to the garbage collector.
type probeState struct {
	keys, scratch, table []uint64
	chain                []uint32 // one random cycle over all slots
	sink                 uint64
}

var calib = func() *probeState {
	words := 2*probeKeys + probeTable + probeChain/2
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	p := &probeState{
		keys:    all[:probeKeys],
		scratch: all[probeKeys : 2*probeKeys],
		table:   all[2*probeKeys : 2*probeKeys+probeTable],
	}
	rest := all[2*probeKeys+probeTable:]
	p.chain = unsafe.Slice((*uint32)(unsafe.Pointer(&rest[0])), probeChain)
	rng := rand.New(rand.NewSource(1))
	for i := range p.keys {
		k := rng.Uint64() | 1 // 0 marks an empty table slot
		p.keys[i] = k
		for h := k * 0x9E3779B97F4A7C15 >> 48; ; h = (h + 1) & (probeTable - 1) {
			if p.table[h] == 0 {
				p.table[h] = k
				break
			}
		}
	}
	// Sattolo's shuffle: a single cycle through every slot.
	for i := range p.chain {
		p.chain[i] = uint32(i)
	}
	for i := probeChain - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.chain[i], p.chain[j] = p.chain[j], p.chain[i]
	}
	return p
}()

// probe runs the calibration work once, on one thread, and returns that
// thread's CPU time for it.
func probe() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := calib
	start := threadCPU()
	copy(p.scratch, p.keys)
	slices.Sort(p.scratch)
	var found uint64
	for _, k := range p.scratch {
		for h := k * 0x9E3779B97F4A7C15 >> 48; p.table[h] != 0; h = (h + 1) & (probeTable - 1) {
			if p.table[h] == k {
				found++
				break
			}
		}
	}
	at := uint32(0)
	for i := 0; i < probeSteps; i++ {
		at = p.chain[at]
	}
	p.sink += found + uint64(at)
	return threadCPU() - start
}

// speedometer brackets slices of operations with probes. A slice closes
// once its operations have run for probeSlice of wall time. At the end of
// the pass each operation is scaled by the host speed around its slice:
// the median probe CPU time over probeWindow probes each side, which
// follows interference over fractions of a second without letting one
// unlucky probe rescale the operations next to it.
type speedometer struct {
	probes  []float64 // probe CPU times
	slice   []int     // per operation, the slice it ran in (opened by probes[slice])
	inSlice time.Duration
}

const probeWindow = 4

func newSpeedometer() *speedometer { return &speedometer{probes: []float64{float64(probe())}} }

// add records that the next operation took wall, closing the slice with a
// probe once it is full.
func (s *speedometer) add(wall time.Duration) {
	s.slice = append(s.slice, len(s.probes)-1)
	s.inSlice += wall
	if s.inSlice >= probeSlice {
		s.probes = append(s.probes, float64(probe()))
		s.inSlice = 0
	}
}

// normalize scales each operation's figure in every series (each parallel
// to the operations added) to the reference host speed, and returns the
// mean speed over the pass.
func (s *speedometer) normalize(series ...[]float64) float64 {
	if s.inSlice > 0 {
		s.probes = append(s.probes, float64(probe()))
		s.inSlice = 0
	}
	smooth := make([]float64, len(s.probes))
	for j := range s.probes {
		lo, hi := max(0, j-probeWindow), min(len(s.probes), j+probeWindow+1)
		smooth[j] = median(s.probes[lo:hi])
	}
	var speedSum float64
	for i, k := range s.slice {
		speed := float64(probeNominal) / ((smooth[k] + smooth[k+1]) / 2)
		for _, xs := range series {
			xs[i] *= speed
		}
		speedSum += speed
	}
	if len(s.slice) == 0 {
		return 1
	}
	return speedSum / float64(len(s.slice))
}
