package catalog

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/relation"
	"tqp/internal/store"
)

// OpenDir opens (or initializes) the persistent store at dir and returns a
// catalog over its relations. Every relation is materialized on open — cold
// open is the one disk pass; scans then run in memory, with the per-segment
// period index still pruning travel scans via the manifest's fences.
func OpenDir(dir string) (*Catalog, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	c := New()
	c.st = st
	for _, name := range st.Relations() {
		if err := c.loadEntry(name); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// DiskBacked reports whether the catalog persists to a store directory.
func (c *Catalog) DiskBacked() bool { return c.st != nil }

// Store exposes the backing store (nil for in-memory catalogs), for tests
// and tooling that inspect the on-disk state.
func (c *Catalog) Store() *store.Store { return c.st }

// loadEntry materializes one relation from the store into the catalog. The
// kernel pass that counts its statistics also checks the manifest's
// declared flags against the stored rows: appends trust the rows already
// there, so a store whose rows contradict its flags is refused as corrupt.
func (c *Catalog) loadEntry(name string) error {
	r, err := c.st.Load(name)
	if err != nil {
		return err
	}
	info, err := c.st.Info(name)
	if err != nil {
		return err
	}
	segs, err := c.st.Segments(name)
	if err != nil {
		return err
	}
	e, err := newEntry(name, r.Schema(), r.Tuples(), info)
	if err != nil {
		return fmt.Errorf("catalog: stored rows contradict the manifest: %v: %w", err, store.ErrCorrupt)
	}
	e.segs = segs
	c.entries[name] = e
	return nil
}

// AddDisk registers a relation in a disk-backed catalog, persisting its
// schema, verified info, and tuples before the in-memory entry appears; a
// crash between Create and Append leaves a committed empty relation, never a
// half-visible one.
func (c *Catalog) AddDisk(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if c.st == nil {
		return fmt.Errorf("catalog: AddDisk on an in-memory catalog")
	}
	if _, dup := c.entries[name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	e, err := newEntry(name, r.Schema(), append([]relation.Tuple(nil), r.Tuples()...), info)
	if err != nil {
		return err
	}
	if err := c.st.Create(name, r.Schema(), info); err != nil {
		return err
	}
	if err := c.st.Append(name, r.Tuples()); err != nil {
		return err
	}
	if e.segs, err = c.st.Segments(name); err != nil {
		return err
	}
	c.entries[name] = e
	return nil
}

// AppendTuples appends rows to a relation, writing a new segment through to
// the store first (disk-backed catalogs). The existing rows are trusted —
// they were verified when they arrived, or at open — so the declared info
// is verified against what the batch can break: the batch against itself,
// and the batch against the existing rows that could clash with it. A
// batch row can only clash with a row whose period equals, overlaps or
// meets its own, so on a disk-backed temporal relation those are the rows
// of the segments whose period fences meet the batch's period span; an
// in-memory relation, a snapshot relation, or a batch holding an empty
// period checks every existing row. Order is checked on the batch and at
// the seam with the last existing row. An append that would falsify
// Distinct, order, or any other planning promise is rejected whole. Stats
// are updated from the batch alone. The cost is proportional to the batch
// plus the fence-overlapping segments; readers holding the old Rel keep
// their snapshot.
func (c *Catalog) AppendTuples(name string, rows []relation.Tuple) error {
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if len(rows) == 0 {
		return nil
	}
	sch := e.Rel.Schema()
	for _, t := range rows {
		if err := t.CheckAgainst(sch); err != nil {
			return fmt.Errorf("catalog: append to %q: %w", name, err)
		}
	}
	base := e
	if e.trusted {
		// Count and verify the vouched-for rows once, as Add would have;
		// the entry changes only if the append commits.
		var err error
		if base, err = newEntry(name, sch, e.all, e.Info); err != nil {
			return err
		}
		base.segs = e.segs
	}
	x, err := base.checkAppend(rows)
	if err != nil {
		return err
	}
	if c.st != nil {
		if err := c.st.Append(name, rows); err != nil {
			return err
		}
		if base.segs, err = c.st.Segments(name); err != nil {
			return err
		}
	}
	base.all = append(base.all, rows...)
	base.publish(x)
	*e = *base // a no-op unless a trusted entry was settled
	return nil
}

// checkAppend runs the kernel for appending rows to e: it indexes the
// batch, probes the existing rows that could clash with it, and verifies
// the declared info.
func (e *Entry) checkAppend(rows []relation.Tuple) (*batchIndex, error) {
	x := indexBatch(e.Rel.Schema(), e.Info, rows)
	existing := e.Rel.Tuples()
	if e.segs == nil || x.t1 < 0 || !x.allPeriods {
		for _, t := range existing {
			x.probe(t)
		}
	} else {
		off := 0
		for _, sg := range e.segs {
			// A fence [MinT, MaxT] meets the span [minT, maxT] when both
			// are closed: a segment ending exactly at minT can hold a row
			// that meets a batch row. An empty fence holds no non-empty
			// period, so nothing in it can clash.
			if !sg.Fenced || (sg.MinT < sg.MaxT && sg.MinT <= int64(x.maxT) && int64(x.minT) <= sg.MaxT) {
				for _, t := range existing[off : off+sg.Rows] {
					x.probe(t)
				}
			}
			off += sg.Rows
		}
	}
	var prev relation.Tuple
	if len(existing) > 0 {
		prev = existing[len(existing)-1]
	}
	return x, x.verdict(e.Name, prev)
}

// AppendRows is AppendTuples over raw row literals.
func (c *Catalog) AppendRows(name string, rows [][]any) error {
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	r, err := relation.FromRows(e.Rel.Schema(), rows)
	if err != nil {
		return fmt.Errorf("catalog: append to %q: %w", name, err)
	}
	return c.AppendTuples(name, r.Tuples())
}

// Compact rewrites a disk-backed relation's segments into one, re-fencing
// the period index over the merged run.
func (c *Catalog) Compact(name string) error {
	if c.st == nil {
		return fmt.Errorf("catalog: Compact on an in-memory catalog")
	}
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := c.st.Compact(name); err != nil {
		return err
	}
	// The tuple list is unchanged; only the segment list and its fences are.
	segs, err := c.st.Segments(name)
	if err != nil {
		return err
	}
	e.segs = segs
	return nil
}

// ImportFrom copies every relation of src into this disk-backed catalog.
// It is the seeding path for a fresh -db-dir: open, find the store empty,
// import the built-in database once, and every later open reads disk.
func (c *Catalog) ImportFrom(src *Catalog) error {
	for _, name := range src.Names() {
		e := src.entries[name]
		if err := c.AddDisk(name, e.Rel, e.Info); err != nil {
			return err
		}
	}
	return nil
}
