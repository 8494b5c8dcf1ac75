package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// verifyInfo is the from-scratch oracle for the append kernel: the
// string-keyed flag checks of Relation over a whole tuple list.
func verifyInfo(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if info.Distinct && r.HasDuplicates() {
		return fmt.Errorf("catalog: %q declared distinct but has duplicates", name)
	}
	if info.SnapshotDistinct && r.HasSnapshotDuplicates() {
		return fmt.Errorf("catalog: %q declared snapshot-distinct but has snapshot duplicates", name)
	}
	if info.Coalesced && !r.IsCoalesced() {
		return fmt.Errorf("catalog: %q declared coalesced but is not", name)
	}
	if !info.Order.Empty() && !r.SortedBy(info.Order) {
		return fmt.Errorf("catalog: %q declared sorted by %s but is not", name, info.Order)
	}
	return nil
}

// computeStats is the from-scratch oracle for the running statistics.
func computeStats(r *relation.Relation) Stats {
	s := Stats{Card: r.Len(), DistinctFrac: 1}
	if r.Len() > 0 {
		distinct := make(map[string]bool, r.Len())
		for _, t := range r.Tuples() {
			distinct[t.Key()] = true
		}
		s.DistinctFrac = float64(len(distinct)) / float64(r.Len())
	}
	if r.Temporal() && r.Len() > 0 {
		var total int64
		first := true
		for _, p := range r.Periods() {
			total += p.Duration()
			if p.Empty() {
				continue
			}
			if first || p.Start < s.MinT {
				s.MinT = p.Start
			}
			if first || p.End > s.MaxT {
				s.MaxT = p.End
			}
			first = false
		}
		s.AvgPeriod = float64(total) / float64(r.Len())
	}
	return s
}

// appendSchema has a float attribute so NaN and ±0 take part in duplicate
// and value-equivalence detection.
var appendSchema = schema.MustNew(
	schema.Attr("Name", value.KindString),
	schema.Attr("W", value.KindFloat),
	schema.Attr(schema.T1, value.KindTime),
	schema.Attr(schema.T2, value.KindTime),
)

// appendGen draws append batches over a time line of eras, 20 chronons
// each. A batch goes forward into a fresh era (disjoint from every stored
// row), stays in the last era (overlaps), starts where the last batch ended
// (adjacent), goes back to an old era, or carries an empty period.
type appendGen struct {
	rng     *rand.Rand
	era     int            // the newest era used
	lastEnd period.Chronon // the latest period end of the last batch
}

func (g *appendGen) batch() []relation.Tuple {
	rng := g.rng
	names := []string{"a", "b", "c"}
	ws := []float64{0, math.Copysign(0, -1), math.NaN(), 2.5}
	mode := rng.Intn(10)
	base := period.Chronon(g.era * 20)
	switch {
	case mode < 4: // forward
		g.era++
		base = period.Chronon(g.era * 20)
	case mode < 6: // the last era
	case mode < 7: // an old era
		base = period.Chronon(rng.Intn(g.era+1) * 20)
	case mode < 9: // adjacent
		base = g.lastEnd
	}
	n := 1 + rng.Intn(5)
	out := make([]relation.Tuple, n)
	var end period.Chronon
	for i := range out {
		s := base + period.Chronon(rng.Intn(10))
		e := s + 1 + period.Chronon(rng.Intn(6))
		if mode == 9 && i == 0 {
			// Empty, at a fixed instant of era 0: [7, 7) or reversed, so
			// it can duplicate an empty row stored in any segment.
			s = 7
			e = s - period.Chronon(rng.Intn(2))
		}
		if (mode == 7 || mode == 8) && i == 0 {
			s, e = base, base+3
		}
		end = max(end, e)
		out[i] = relation.NewTuple(value.String_(names[rng.Intn(len(names))]),
			value.Float(ws[rng.Intn(len(ws))]), value.Time(s), value.Time(e))
	}
	g.lastEnd = end
	if rng.Intn(10) < 7 {
		r := relation.FromTuplesTrusted(appendSchema, out)
		if err := r.SortStable(relation.OrderSpec{relation.Key(schema.T1)}); err != nil {
			panic(err)
		}
	}
	return out
}

// TestAppendIncrementalMatchesScratch is the differential for the append
// kernel: random append sequences over every base-info flag combination,
// on in-memory and disk catalogs, must accept and reject exactly as the
// from-scratch verifyInfo over the combined list does (same message), keep
// Stats bit-identical to computeStats, resolve the same tuple list, leave a
// reader's old relation untouched, and — on disk — fingerprint like a
// freshly reopened catalog. Compactions and reopens are mixed in. The
// vacuity guard requires accepted and rejected appends for every flag, and
// both fence-pruned and unpruned disk appends.
func TestAppendIncrementalMatchesScratch(t *testing.T) {
	flags := []string{"distinct", "snapshot-distinct", "coalesced", "order"}
	only := func(info algebra.BaseInfo, flag string) algebra.BaseInfo {
		switch flag {
		case "distinct":
			return algebra.BaseInfo{Distinct: info.Distinct}
		case "snapshot-distinct":
			return algebra.BaseInfo{SnapshotDistinct: info.SnapshotDistinct}
		case "coalesced":
			return algebra.BaseInfo{Coalesced: info.Coalesced}
		}
		return algebra.BaseInfo{Order: info.Order}
	}
	declared := func(info algebra.BaseInfo, flag string) bool {
		o := only(info, flag)
		return o.Distinct || o.SnapshotDistinct || o.Coalesced || !o.Order.Empty()
	}
	accepted := map[string]int{}
	rejected := map[string]int{}
	pruned, unpruned := 0, 0

	for mask := 0; mask < 16; mask++ {
		info := algebra.BaseInfo{Distinct: mask&1 != 0, SnapshotDistinct: mask&2 != 0, Coalesced: mask&4 != 0}
		if mask&8 != 0 {
			info.Order = relation.OrderSpec{relation.Key(schema.T1)}
		}
		for _, disk := range []bool{false, true} {
			seed := int64(2 * mask)
			if disk {
				seed++
			}
			rng := rand.New(rand.NewSource(seed))
			gen := &appendGen{rng: rng}
			dir := t.TempDir()
			var c *Catalog
			empty := relation.New(appendSchema)
			if disk {
				var err error
				if c, err = OpenDir(dir); err != nil {
					t.Fatal(err)
				}
				if err := c.AddDisk("R", empty, info); err != nil {
					t.Fatal(err)
				}
			} else {
				c = New()
				if err := c.Add("R", empty, info); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 40; step++ {
				where := fmt.Sprintf("flags=%04b disk=%v step=%d", mask, disk, step)
				batch := gen.batch()
				e := c.entries["R"]
				before := e.Rel
				n := before.Len()
				combined := relation.FromTuplesTrusted(appendSchema,
					append(append([]relation.Tuple(nil), before.Tuples()...), batch...))
				want := verifyInfo("R", combined, info)
				if disk && n > 0 {
					x, _ := e.checkAppend(batch)
					if x.probed < n {
						pruned++
					} else {
						unpruned++
					}
				}

				got := c.AppendTuples("R", batch)
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Fatalf("%s: append of %v: got %v, from scratch %v", where, batch, got, want)
				}
				for _, f := range flags {
					switch {
					case !declared(info, f):
					case verifyInfo("R", combined, only(info, f)) != nil:
						rejected[f]++
					case got == nil:
						accepted[f]++
					}
				}

				wantRel := before
				if want == nil {
					wantRel = combined
				}
				e = c.entries["R"]
				if !e.Rel.EqualAsList(wantRel) || !e.Rel.Order().Equal(info.Order) {
					t.Fatalf("%s: resolved list differs from the from-scratch list", where)
				}
				if cap(before.Tuples()) != n || !before.EqualAsList(relation.FromTuplesTrusted(appendSchema, combined.Tuples()[:n])) {
					t.Fatalf("%s: a reader's relation changed or can grow in place", where)
				}
				if ws := computeStats(wantRel); e.Stats != ws {
					t.Fatalf("%s: stats %+v, from scratch %+v", where, e.Stats, ws)
				}
				if !disk {
					continue
				}
				reopened, err := OpenDir(dir)
				if err != nil {
					t.Fatalf("%s: reopen: %v", where, err)
				}
				if reopened.Fingerprint() != c.Fingerprint() {
					t.Fatalf("%s: fingerprint %s, reopened %s", where, c.Fingerprint(), reopened.Fingerprint())
				}
				switch rng.Intn(10) {
				case 0:
					if err := c.Compact("R"); err != nil {
						t.Fatal(err)
					}
				case 1:
					c = reopened // keep appending on the reopened catalog
				}
			}
		}
	}

	for _, f := range flags {
		if accepted[f] == 0 || rejected[f] == 0 {
			t.Errorf("flag %s: %d accepted, %d rejected appends; both must occur", f, accepted[f], rejected[f])
		}
	}
	if pruned == 0 || unpruned == 0 {
		t.Errorf("%d fence-pruned, %d unpruned disk appends; both must occur", pruned, unpruned)
	}
	t.Logf("accepted %v, rejected %v, pruned %d, unpruned %d", accepted, rejected, pruned, unpruned)
}

// TestAppendToTrustedEntry: an AddTrusted entry was never verified or
// counted, so its first append checks every row, and Stats become exact.
func TestAppendToTrustedEntry(t *testing.T) {
	row := func(name string, s, e int) relation.Tuple {
		return relation.NewTuple(value.String_(name), value.Float(1), value.Time(period.Chronon(s)), value.Time(period.Chronon(e)))
	}
	c := New()
	dup := relation.FromTuplesTrusted(appendSchema, []relation.Tuple{row("a", 0, 5), row("a", 0, 5)})
	if err := c.AddTrusted("D", dup, algebra.BaseInfo{Distinct: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTuples("D", []relation.Tuple{row("b", 9, 10)}); err == nil {
		t.Fatal("an append to a trusted entry whose rows have duplicates must fail")
	}
	if e := c.entries["D"]; e.Rel.Len() != 2 || e.Stats != (Stats{Card: 2, DistinctFrac: 1}) {
		t.Fatalf("failed append changed the entry: %d rows, %+v", e.Rel.Len(), e.Stats)
	}

	ok := relation.FromTuplesTrusted(appendSchema, []relation.Tuple{row("a", 0, 5), row("a", 0, 5), row("b", 3, 4)})
	if err := c.AddTrusted("R", ok, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTuples("R", []relation.Tuple{row("c", 7, 9)}); err != nil {
		t.Fatal(err)
	}
	want := relation.FromTuplesTrusted(appendSchema, append(ok.Tuples()[:3:3], row("c", 7, 9)))
	if e := c.entries["R"]; !e.Rel.EqualAsList(want) || e.Stats != computeStats(want) {
		t.Fatalf("stats %+v, from scratch %+v", e.Stats, computeStats(want))
	}
	if ok.Len() != 3 {
		t.Fatal("the append grew the caller's relation")
	}
}
