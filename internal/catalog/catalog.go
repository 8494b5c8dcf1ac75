// Package catalog manages named base relations together with the metadata
// the optimizer needs: declared order, duplicate-freeness, snapshot
// duplicate-freeness, coalescing state, and simple statistics for the cost
// model. It also provides the paper's example database (Figure 1).
package catalog

import (
	"fmt"
	"hash/fnv"
	"sort"

	"tqp/internal/algebra"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/store"
	"tqp/internal/value"
)

// Stats summarizes a base relation for cardinality estimation.
type Stats struct {
	// Card is the tuple count.
	Card int
	// DistinctFrac estimates the fraction of distinct tuples.
	DistinctFrac float64
	// AvgPeriod is the mean period duration of a temporal relation.
	AvgPeriod float64
	// MinT and MaxT bound the non-empty periods of a temporal relation
	// (earliest start, latest end) — the selectivity anchors for
	// time-travel scans. Both are 0 for snapshot relations and for
	// temporal relations with no non-empty periods.
	MinT, MaxT period.Chronon
}

// Entry is one catalog relation.
type Entry struct {
	Name  string
	Rel   *relation.Relation
	Info  algebra.BaseInfo
	Stats Stats

	// segs mirrors the persistent store's segment list for a disk-backed
	// relation (append order; cumulative Rows give each segment's row
	// range within Rel). Nil for purely in-memory entries, which have no
	// period index to prune with.
	segs []store.SegmentInfo

	// all is the entry's growable tuple list; Rel is a relation over
	// all[:n:n], so appends fill the spare capacity without copying and a
	// reader's append to an old Rel reallocates instead of overwriting.
	all []relation.Tuple
	// distinct and periodSum are the running totals behind
	// Stats.DistinctFrac and Stats.AvgPeriod: the number of distinct
	// tuples and the summed period durations.
	distinct  int
	periodSum int64
	// trusted marks an AddTrusted entry: its info was never verified and
	// its totals never counted, so its first append checks every row.
	trusted bool
}

// newEntry verifies info over a whole tuple list and counts its statistics
// in one kernel pass: every row is the batch, and there are no existing
// rows. The entry takes ownership of tuples.
func newEntry(name string, sch *schema.Schema, tuples []relation.Tuple, info algebra.BaseInfo) (*Entry, error) {
	x := indexBatch(sch, info, tuples)
	if err := x.verdict(name, nil); err != nil {
		return nil, err
	}
	e := &Entry{Name: name, Info: info, all: tuples}
	e.publish(x)
	return e, nil
}

// publish folds a verified batch, already at the end of e.all, into the
// running totals, derives Stats from them — bit-identical to a from-scratch
// pass over the list — and installs Rel over the grown list.
func (e *Entry) publish(x *batchIndex) {
	n := len(e.all)
	e.distinct += x.newDistinct()
	e.periodSum += x.periodSum
	s := Stats{Card: n, DistinctFrac: 1, MinT: e.Stats.MinT, MaxT: e.Stats.MaxT}
	if n > 0 {
		s.DistinctFrac = float64(e.distinct) / float64(n)
		if x.sch.Temporal() {
			s.AvgPeriod = float64(e.periodSum) / float64(n)
		}
	}
	switch {
	case !x.spanned:
	case s.MinT >= s.MaxT: // no earlier row has a non-empty period
		s.MinT, s.MaxT = x.minT, x.maxT
	default:
		s.MinT, s.MaxT = min(s.MinT, x.minT), max(s.MaxT, x.maxT)
	}
	e.Stats = s
	e.Rel = relation.FromTuplesTrusted(x.sch, e.all[:n:n])
	e.Rel.SetOrder(e.Info.Order)
}

// Catalog is a set of named relations.
type Catalog struct {
	entries map[string]*Entry

	// st is the persistent store backing this catalog's relations, or nil
	// for an in-memory catalog. Appends and compactions write through to
	// it, and its manifest version is folded into Fingerprint so cached
	// plans never outlive the data they were planned against.
	st *store.Store

	// met holds the cumulative scan counters (see metrics.go).
	met meters
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{entries: make(map[string]*Entry)} }

// Add registers a relation under name. The Info flags are verified against
// the instance so that the optimizer's static reasoning starts from true
// premises; Add fails on a lie (e.g., declaring Distinct over data with
// duplicates).
func (c *Catalog) Add(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if _, dup := c.entries[name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	e, err := newEntry(name, r.Schema(), append([]relation.Tuple(nil), r.Tuples()...), info)
	if err != nil {
		return err
	}
	c.entries[name] = e
	return nil
}

// AddTrusted registers a relation whose Info the caller vouches for,
// skipping Add's instance verification, the defensive clone, and the O(n)
// statistics pass. It exists for execution-only catalogs built from data
// that already passed Add once — shard slices of a verified relation, or a
// coordinator's gathered intermediate results — where re-verification per
// shard would turn setup into an O(shards·n) scan. The relation must not
// be mutated after registration. Stats are the trivial estimate; these
// catalogs execute plans, they don't cost them.
func (c *Catalog) AddTrusted(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if _, dup := c.entries[name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	r.SetOrder(info.Order)
	n := r.Len()
	c.entries[name] = &Entry{Name: name, Rel: r, Info: info, Stats: Stats{Card: n, DistinctFrac: 1},
		all: r.Tuples()[:n:n], trusted: true}
	return nil
}

// MustAdd is Add panicking on error, for catalog literals.
func (c *Catalog) MustAdd(name string, r *relation.Relation, info algebra.BaseInfo) {
	if err := c.Add(name, r, info); err != nil {
		panic(err)
	}
}

// Resolve implements eval.Source. Scan names carrying a time-travel suffix
// (see ScanName) resolve to the period-filtered view of their base
// relation.
func (c *Catalog) Resolve(name string) (*relation.Relation, error) {
	r, _, _, err := c.ResolveScan(name)
	return r, err
}

// Entry returns the catalog entry for name.
func (c *Catalog) Entry(name string) (*Entry, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return e, nil
}

// Node returns an algebra leaf for the named relation, carrying its schema
// and base info.
func (c *Catalog) Node(name string) (*algebra.Rel, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return algebra.NewRel(e.Name, e.Rel.Schema(), e.Info), nil
}

// MustNode is Node panicking on error.
func (c *Catalog) MustNode(name string) *algebra.Rel {
	n, err := c.Node(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Fingerprint returns a stable hash of the catalog's planning-relevant
// state: relation names, schemas, base-info flags, declared orders and
// statistics. Two catalogs with equal fingerprints yield identical plans
// for any statement, so the fingerprint keys cached physical plans (the
// server's plan cache) — a catalog swap or a statistics change invalidates
// every entry keyed under the old fingerprint. Instance tuples are not
// hashed; they don't influence planning, only Stats does.
func (c *Catalog) Fingerprint() string {
	h := fnv.New64a()
	for _, name := range c.Names() {
		e := c.entries[name]
		fmt.Fprintf(h, "%s|%s|%v|%v|%v|%s|%d|%.9g|%.9g|%d|%d|%d;",
			name, e.Rel.Schema(), e.Info.Distinct, e.Info.SnapshotDistinct,
			e.Info.Coalesced, e.Info.Order, e.Stats.Card,
			e.Stats.DistinctFrac, e.Stats.AvgPeriod,
			e.Stats.MinT, e.Stats.MaxT, len(e.segs))
	}
	if c.st != nil {
		// The manifest version counts every durable commit, so a cached
		// plan keyed under an older fingerprint can never be replayed over
		// appended or compacted data.
		fmt.Fprintf(h, "store|%d;", c.st.Version())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Names returns the catalog's relation names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EmployeeSchema is the schema of the paper's EMPLOYEE relation.
func EmployeeSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr("Dept", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

// ProjectSchema is the schema of the paper's PROJECT relation.
func ProjectSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr("Prj", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

// Paper returns the example database of Figure 1: the EMPLOYEE and PROJECT
// temporal relations, with time values denoting months during some year and
// a closed-open representation for time periods.
func Paper() *Catalog {
	c := New()
	emp := relation.MustFromRows(EmployeeSchema(), [][]any{
		{"John", "Sales", 1, 8},
		{"John", "Advertising", 6, 11},
		{"Anna", "Sales", 2, 6},
		{"Anna", "Advertising", 2, 6},
		{"Anna", "Sales", 6, 12},
	})
	prj := relation.MustFromRows(ProjectSchema(), [][]any{
		{"John", "P1", 2, 3},
		{"John", "P2", 5, 6},
		{"John", "P1", 7, 8},
		{"John", "P3", 9, 10},
		{"Anna", "P2", 3, 4},
		{"Anna", "P2", 5, 6},
		{"Anna", "P3", 7, 8},
		{"Anna", "P3", 9, 10},
	})
	// EMPLOYEE is distinct as a list of (name, dept, period) tuples but has
	// duplicates in snapshots (Anna holds two departments over [2,6));
	// PROJECT rows are distinct and snapshot-distinct (no employee is on
	// the same project twice at once) but neither relation is coalesced as
	// projected views may become; both are stored unordered.
	c.MustAdd("EMPLOYEE", emp, algebra.BaseInfo{Distinct: true})
	c.MustAdd("PROJECT", prj, algebra.BaseInfo{Distinct: true, SnapshotDistinct: true})
	return c
}

// PaperResultRows returns the paper's expected Result relation from
// Figure 1 (sorted by EmpName ASC, coalesced, snapshot-duplicate-free) as
// raw rows over (EmpName, T1, T2).
func PaperResultRows() [][]any {
	return [][]any{
		{"Anna", 2, 3},
		{"Anna", 4, 5},
		{"Anna", 6, 7},
		{"Anna", 8, 9},
		{"Anna", 10, 12},
		{"John", 1, 2},
		{"John", 3, 5},
		{"John", 6, 7},
		{"John", 8, 9},
		{"John", 10, 11},
	}
}
