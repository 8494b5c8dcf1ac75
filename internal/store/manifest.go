package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"tqp/internal/algebra"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// manifestMagic versions the on-disk manifest format. The magic heads the
// checksummed header line, so an old binary refuses a future layout instead
// of misreading it.
const manifestMagic = "tqp-store-v1"

// manifestName and manifestTmpName are the committed manifest and its
// in-flight staging file. The rename from tmp to committed is the store's
// single atomic commit point.
const (
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
)

// SegmentInfo describes one committed segment file: an immutable run of
// columnar blocks (the spill codec) holding Rows tuples of one relation,
// plus the period index — the min/max chronon fences a scan consults to
// skip segments that cannot overlap a requested period.
type SegmentInfo struct {
	// File is the segment's file name within the store directory.
	File string `json:"file"`
	// Rows is the tuple count; the reader decodes exactly this many.
	Rows int `json:"rows"`
	// Bytes is the exact encoded size; a committed segment whose size
	// differs was torn or tampered with.
	Bytes int64 `json:"bytes"`
	// MinT and MaxT fence the non-empty tuple periods: every period [t1,t2)
	// in the segment satisfies MinT <= t1 and t2 <= MaxT. They are valid
	// only when Fenced; a fenced segment with MinT >= MaxT holds no
	// non-empty periods and never overlaps any query period.
	MinT int64 `json:"min_t"`
	MaxT int64 `json:"max_t"`
	// Fenced reports that the fences are meaningful (a temporal relation's
	// segment). Unfenced segments are always scanned.
	Fenced bool `json:"fenced"`
}

// MayOverlap reports whether the segment can hold a tuple whose period
// overlaps p: the fence test of an indexed period scan. Unfenced segments
// conservatively report true.
func (s SegmentInfo) MayOverlap(p period.Period) bool {
	if !s.Fenced {
		return true
	}
	return period.New(period.Chronon(s.MinT), period.Chronon(s.MaxT)).Overlaps(p)
}

// manifestAttr is one schema attribute in manifest form.
type manifestAttr struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// manifestKey is one declared order key in manifest form.
type manifestKey struct {
	Attr string `json:"attr"`
	Desc bool   `json:"desc,omitempty"`
}

// manifestRel is one relation's committed state: its schema, the verified
// base-info flags the optimizer plans with, and the ordered segment list
// (append order — concatenating the segments reproduces the tuple list).
type manifestRel struct {
	Name             string         `json:"name"`
	Attrs            []manifestAttr `json:"attrs"`
	Distinct         bool           `json:"distinct,omitempty"`
	SnapshotDistinct bool           `json:"snapshot_distinct,omitempty"`
	Coalesced        bool           `json:"coalesced,omitempty"`
	Order            []manifestKey  `json:"order,omitempty"`
	Segments         []SegmentInfo  `json:"segments,omitempty"`
}

// manifest is the store's committed root: the version counter (bumped by
// every commit; the catalog folds it into its planning fingerprint so a
// persisted append invalidates cached plans), the segment-name allocator,
// and the relation list sorted by name.
type manifest struct {
	Magic     string         `json:"magic"`
	Version   uint64         `json:"version"`
	NextSeg   uint64         `json:"next_seg"`
	Relations []*manifestRel `json:"relations"`
}

// rel returns the named relation's manifest entry, or nil.
func (m *manifest) rel(name string) *manifestRel {
	for _, r := range m.Relations {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// clone deep-copies the manifest; commits mutate the clone and install it
// only after the rename succeeds, so a failed commit leaves the in-memory
// state exactly at the last durable manifest.
func (m *manifest) clone() *manifest {
	out := &manifest{Magic: m.Magic, Version: m.Version, NextSeg: m.NextSeg}
	out.Relations = make([]*manifestRel, len(m.Relations))
	for i, r := range m.Relations {
		cp := *r
		cp.Attrs = append([]manifestAttr(nil), r.Attrs...)
		cp.Order = append([]manifestKey(nil), r.Order...)
		cp.Segments = append([]SegmentInfo(nil), r.Segments...)
		out.Relations[i] = &cp
	}
	return out
}

// schemaOf reconstructs the relation's schema from its manifest attrs.
func (r *manifestRel) schemaOf() (*schema.Schema, error) {
	attrs := make([]schema.Attribute, len(r.Attrs))
	for i, a := range r.Attrs {
		k, err := value.ParseKind(a.Kind)
		if err != nil {
			return nil, fmt.Errorf("store: relation %q attribute %q: %w", r.Name, a.Name, err)
		}
		attrs[i] = schema.Attr(a.Name, k)
	}
	return schema.New(attrs...)
}

// infoOf reconstructs the relation's declared base info.
func (r *manifestRel) infoOf() algebra.BaseInfo {
	info := algebra.BaseInfo{
		Distinct:         r.Distinct,
		SnapshotDistinct: r.SnapshotDistinct,
		Coalesced:        r.Coalesced,
	}
	for _, k := range r.Order {
		dir := relation.Asc
		if k.Desc {
			dir = relation.Desc
		}
		info.Order = append(info.Order, relation.OrderKey{Attr: k.Attr, Dir: dir})
	}
	return info
}

// newManifestRel builds a relation's manifest entry from its schema and
// declared info.
func newManifestRel(name string, sch *schema.Schema, info algebra.BaseInfo) *manifestRel {
	r := &manifestRel{
		Name:             name,
		Distinct:         info.Distinct,
		SnapshotDistinct: info.SnapshotDistinct,
		Coalesced:        info.Coalesced,
	}
	for _, a := range sch.Attributes() {
		r.Attrs = append(r.Attrs, manifestAttr{Name: a.Name, Kind: a.Kind.String()})
	}
	for _, k := range info.Order {
		r.Order = append(r.Order, manifestKey{Attr: k.Attr, Desc: k.Dir == relation.Desc})
	}
	return r
}

// encodeManifest renders the manifest in its checksummed on-disk form:
//
//	tqp-store-v1 <crc32c hex> <payload bytes>\n
//	<JSON payload>
//
// The header line carries the CRC-32C and exact length of the payload, so a
// torn or bit-flipped manifest is detected before any of it is trusted.
func encodeManifest(m *manifest) ([]byte, error) {
	payload, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encoding manifest: %w", err)
	}
	return sealManifest(payload), nil
}

// sealManifest prefixes a manifest payload with its checksummed header line.
func sealManifest(payload []byte) []byte {
	header := fmt.Sprintf("%s %08x %d\n", manifestMagic, crc32.Checksum(payload, castagnoli), len(payload))
	return append([]byte(header), payload...)
}

// decodeManifest parses and verifies a manifest file's bytes. Every failure
// wraps ErrCorrupt: a manifest that exists but does not verify is corruption,
// never a silent fresh start.
func decodeManifest(data []byte) (*manifest, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("store: manifest has no header line: %w", ErrCorrupt)
	}
	var magic string
	var sum uint32
	var n int
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %x %d", &magic, &sum, &n); err != nil {
		return nil, fmt.Errorf("store: malformed manifest header: %w", ErrCorrupt)
	}
	if magic != manifestMagic {
		return nil, fmt.Errorf("store: manifest magic %q (want %q): %w", magic, manifestMagic, ErrCorrupt)
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("store: manifest payload is %d bytes, header claims %d: %w", len(payload), n, ErrCorrupt)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("store: manifest checksum mismatch: %w", ErrCorrupt)
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("store: manifest JSON: %v: %w", err, ErrCorrupt)
	}
	if m.Magic != manifestMagic {
		return nil, fmt.Errorf("store: manifest body magic %q: %w", m.Magic, ErrCorrupt)
	}
	for _, r := range m.Relations {
		if r == nil {
			return nil, fmt.Errorf("store: manifest lists a null relation: %w", ErrCorrupt)
		}
		if _, err := r.schemaOf(); err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
		}
		for _, sg := range r.Segments {
			if sg.Rows < 0 || sg.Bytes < 0 {
				return nil, fmt.Errorf("store: relation %q segment %s has a negative size: %w", r.Name, sg.File, ErrCorrupt)
			}
		}
	}
	return &m, nil
}

// readManifest loads and verifies the manifest at path.
func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(data)
}
