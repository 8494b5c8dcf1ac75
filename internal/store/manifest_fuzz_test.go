package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// FuzzDecodeManifest pins the manifest decoder's contract on arbitrary
// bytes: it returns an error wrapping ErrCorrupt, or a manifest that
// re-encodes and decodes to the same value — never a panic. "The same
// value" is judged by the encoding, since an empty list and an absent one
// encode alike. The checksum rejects nearly every mutated file before its
// JSON is read, so each input is also decoded with its payload re-sealed
// under a valid header, which lets mutations reach the JSON and the schema
// checks. The corpus is seeded with the manifests a store commits as
// relations are created, appended to and compacted.
func FuzzDecodeManifest(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	seed := func() {
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed()
	temporal := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
	snapshot := schema.MustNew(
		schema.Attr("N", value.KindInt),
		schema.Attr("X", value.KindFloat),
		schema.Attr("B", value.KindBool),
	)
	info := algebra.BaseInfo{Distinct: true, SnapshotDistinct: true, Coalesced: true,
		Order: relation.OrderSpec{relation.Key(schema.T1), relation.KeyDesc("Name")}}
	steps := []func() error{
		func() error { return s.Create("R", temporal, info) },
		func() error {
			return s.Append("R", relation.MustFromRows(temporal, [][]any{{"a", 0, 5}, {"b", 4, 10}}).Tuples())
		},
		func() error { return s.Create("S", snapshot, algebra.BaseInfo{}) },
		func() error {
			return s.Append("S", relation.MustFromRows(snapshot, [][]any{{1, 2.5, true}, {2, -1.0, false}}).Tuples())
		},
		func() error {
			return s.Append("R", relation.MustFromRows(temporal, [][]any{{"c", 100, 105}, {"d", 7, 7}}).Tuples())
		},
		func() error { return s.Compact("R") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			f.Fatal(err)
		}
		seed()
	}

	// A null relation entry used to panic the decoder, and a negative
	// segment size used to panic Load.
	f.Add(sealManifest([]byte(`{"magic":"tqp-store-v1","relations":[null]}`)))
	f.Add(sealManifest([]byte(`{"magic":"tqp-store-v1","relations":[{"name":"R","attrs":[{"name":"A","kind":"int"}],"segments":[{"file":"seg-000000.seg","rows":-5}]}]}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkManifestRoundTrip(t, data)
		checkManifestRoundTrip(t, sealManifest(data[bytes.IndexByte(data, '\n')+1:]))
	})
}

func checkManifestRoundTrip(t *testing.T, data []byte) {
	m, err := decodeManifest(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
		}
		return
	}
	enc, err := encodeManifest(m)
	if err != nil {
		t.Fatalf("a decoded manifest does not re-encode: %v", err)
	}
	again, err := decodeManifest(enc)
	if err != nil {
		t.Fatalf("a re-encoded manifest does not decode: %v", err)
	}
	enc2, err := encodeManifest(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("the round trip changed the manifest:\n%s\n---\n%s", enc, enc2)
	}
}
