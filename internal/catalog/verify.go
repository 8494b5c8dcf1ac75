package catalog

import (
	"fmt"
	"math/bits"

	"tqp/internal/algebra"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// batchIndex is the single kernel behind every base-info check and every
// statistics update: a hash index over a batch of rows about to join a
// relation whose existing rows already satisfy its declared info. Building
// it checks the batch against itself; probe checks one existing row against
// the whole batch. Between them they find every new pair of equal tuples
// (Distinct), of value-equivalent tuples with overlapping periods
// (SnapshotDistinct) and with adjacent periods (Coalesced), and count the
// batch rows equal to no earlier row — the increment of the distinct count.
//
// Rows are hashed with the allocation-free Tuple.HashOn and a hit is
// confirmed with Value.Equal, which agrees with Value.Key on every value
// (NaN equals NaN, -0 equals 0, an integral float equals its int), so the
// verdicts are those of the string-keyed checks on Relation. (Tuple keys
// join value keys with a 0x1f separator, so the string checks alone would
// also conflate two tuples whose strings shift a separator between
// attributes; position-wise equality does not.)
type batchIndex struct {
	sch    *schema.Schema
	info   algebra.BaseInfo
	rows   []relation.Tuple
	vidx   []int // value-equivalence positions: every attribute but T1, T2
	t1, t2 int   // period positions; -1 for snapshot schemas
	// values builds and probes the value-equivalence chains; only the
	// SnapshotDistinct and Coalesced checks of a temporal relation need
	// them.
	values bool

	// Two chained hash tables over batch positions: head maps a bucket to
	// 1+its first row (0 = empty), next links a row to the next row of its
	// bucket. The full table holds one row per class of equal tuples; the
	// value table holds every row with a non-empty period.
	shift              uint
	hf, hv             []uint64 // full-tuple and value-attribute hashes
	fullHead, fullNext []int32
	valHead, valNext   []int32
	// seen marks a batch row equal to an earlier batch row or to a probed
	// existing row; the rows left unmarked are new distinct tuples.
	seen []bool

	dup, snapDup, adjacent bool // a violating pair involving a batch row

	// Batch statistics: summed period durations, and the bounds of the
	// non-empty periods (spanned reports that there is one). allPeriods
	// reports that no batch row has an empty period, so every clash lies
	// within [minT, maxT] — the premise of fence pruning.
	periodSum  int64
	minT, maxT period.Chronon
	spanned    bool
	allPeriods bool

	probed int // existing rows checked against the batch
}

// indexBatch builds the kernel over rows, checking them against each other.
func indexBatch(sch *schema.Schema, info algebra.BaseInfo, rows []relation.Tuple) *batchIndex {
	n := len(rows)
	lg := bits.Len(uint(2 * n)) // 2^lg > 2n buckets
	size := 1 << lg
	x := &batchIndex{
		sch:        sch,
		info:       info,
		rows:       rows,
		shift:      uint(64 - lg),
		hf:         make([]uint64, n),
		fullHead:   make([]int32, size),
		fullNext:   make([]int32, n),
		seen:       make([]bool, n),
		allPeriods: true,
	}
	x.t1, x.t2 = sch.TimeIndices()
	for i := 0; i < sch.Len(); i++ {
		if i != x.t1 && i != x.t2 {
			x.vidx = append(x.vidx, i)
		}
	}
	if x.t1 >= 0 && (info.SnapshotDistinct || info.Coalesced) {
		x.values = true
		x.hv = make([]uint64, n)
		x.valHead = make([]int32, size)
		x.valNext = make([]int32, n)
	}
	for j, t := range rows {
		hv, hf := x.hash(t)
		x.hf[j] = hf
		if i := x.findEqual(t, hf); i >= 0 {
			x.seen[j], x.dup = true, true
		} else {
			b := x.bucket(hf)
			x.fullNext[j], x.fullHead[b] = x.fullHead[b], int32(j+1)
		}
		if x.t1 < 0 {
			continue
		}
		p := t.PeriodAt(x.t1, x.t2)
		x.periodSum += p.Duration()
		if p.Empty() {
			x.allPeriods = false
			continue
		}
		if !x.spanned || p.Start < x.minT {
			x.minT = p.Start
		}
		if !x.spanned || p.End > x.maxT {
			x.maxT = p.End
		}
		x.spanned = true
		if x.values {
			x.matchValues(t, hv, p)
			x.hv[j] = hv
			b := x.bucket(hv)
			x.valNext[j], x.valHead[b] = x.valHead[b], int32(j+1)
		}
	}
	return x
}

// hash returns a row's value-attribute hash and its full-tuple hash (the
// value hash with the period folded in; the same hash for snapshot rows).
func (x *batchIndex) hash(t relation.Tuple) (hv, hf uint64) {
	hv = t.HashOn(x.vidx)
	if x.t1 < 0 {
		return hv, hv
	}
	return hv, t[x.t2].HashInto(t[x.t1].HashInto(hv))
}

// bucket maps a hash onto the tables by Fibonacci hashing (the high bits of
// a multiplicative mix), so buckets do not depend on FNV's weak low bits.
func (x *batchIndex) bucket(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> x.shift)
}

// findEqual returns the indexed batch row equal to t, or -1.
func (x *batchIndex) findEqual(t relation.Tuple, hf uint64) int {
	for j := x.fullHead[x.bucket(hf)] - 1; j >= 0; j = x.fullNext[j] - 1 {
		if x.hf[j] == hf && x.rows[j].Equal(t) {
			return int(j)
		}
	}
	return -1
}

// matchValues checks t, whose period p is non-empty, against every indexed
// value-equivalent batch row for overlapping and adjacent periods.
func (x *batchIndex) matchValues(t relation.Tuple, hv uint64, p period.Period) {
	for j := x.valHead[x.bucket(hv)] - 1; j >= 0; j = x.valNext[j] - 1 {
		u := x.rows[j]
		if x.hv[j] != hv || !u.EqualOn(x.vidx, t) {
			continue
		}
		q := u.PeriodAt(x.t1, x.t2)
		x.snapDup = x.snapDup || p.Overlaps(q)
		x.adjacent = x.adjacent || p.Adjacent(q)
	}
}

// probe checks one existing row against the batch.
func (x *batchIndex) probe(t relation.Tuple) {
	x.probed++
	hv, hf := x.hash(t)
	if j := x.findEqual(t, hf); j >= 0 {
		x.seen[j], x.dup = true, true
	}
	if x.values {
		if p := t.PeriodAt(x.t1, x.t2); !p.Empty() {
			x.matchValues(t, hv, p)
		}
	}
}

// newDistinct counts the batch rows equal to no earlier row.
func (x *batchIndex) newDistinct() int {
	n := 0
	for _, s := range x.seen {
		if !s {
			n++
		}
	}
	return n
}

// verdict reports the first declared flag the batch falsifies, in the order
// Distinct, SnapshotDistinct, Coalesced, Order. prev is the relation's last
// existing row (nil when there is none); the existing rows are sorted
// already, so order holds when the batch is sorted and starts at or after
// prev.
func (x *batchIndex) verdict(name string, prev relation.Tuple) error {
	info := x.info
	if info.Distinct && x.dup {
		return fmt.Errorf("catalog: %q declared distinct but has duplicates", name)
	}
	// Snapshot duplicates of a snapshot relation are plain duplicates.
	if info.SnapshotDistinct && (x.snapDup || (x.t1 < 0 && x.dup)) {
		return fmt.Errorf("catalog: %q declared snapshot-distinct but has snapshot duplicates", name)
	}
	// Coalescing is undefined for snapshot relations.
	if info.Coalesced && (x.adjacent || x.t1 < 0) {
		return fmt.Errorf("catalog: %q declared coalesced but is not", name)
	}
	if !info.Order.Empty() && !x.sorted(prev) {
		return fmt.Errorf("catalog: %q declared sorted by %s but is not", name, info.Order)
	}
	return nil
}

// sorted reports that prev followed by the batch satisfies the declared
// order.
func (x *batchIndex) sorted(prev relation.Tuple) bool {
	o := x.info.Order
	if o.Validate(x.sch) != nil {
		return false
	}
	for _, t := range x.rows {
		if prev != nil && relation.CompareOn(x.sch, o, prev, t) > 0 {
			return false
		}
		prev = t
	}
	return true
}
