package dfs

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	fs := New(64)
	if err := fs.WriteFile("a/one", [][]byte{[]byte("hello"), {}, []byte("world")}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("b/two", [][]byte{{0, 1, 2, 255}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	before := fs.Stats()
	if err := fs.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Snapshot I/O is host I/O, not simulated DFS traffic: uncharged.
	if fs.Stats() != before {
		t.Errorf("WriteSnapshot charged the DFS counters: %+v -> %+v", before, fs.Stats())
	}

	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.List(), fs.List()) {
		t.Errorf("file list = %v, want %v", got.List(), fs.List())
	}
	for _, name := range fs.List() {
		var want, have [][]byte
		if err := fs.Scan(name, func(r []byte) error {
			want = append(want, append([]byte(nil), r...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := got.Scan(name, func(r []byte) error {
			have = append(have, append([]byte(nil), r...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(have, want) {
			t.Errorf("%s: records differ after round trip", name)
		}
	}
	// The restored FS starts with fresh counters apart from the scans
	// just charged — byte/record reads only, nothing written.
	st := got.Stats()
	if st.BytesWritten != 0 || st.RecordsWritten != 0 || st.FilesCreated != 0 {
		t.Errorf("restored FS carries write counters: %+v", st)
	}
}

func TestReadSnapshotBadMagic(t *testing.T) {
	_, err := ReadSnapshot(strings.NewReader("not a snapshot"), 64)
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("bad magic: err = %v", err)
	}
}

// TestReadSnapshotCorruptLengths feeds images whose counts and length
// prefixes claim far more than the input holds. Each must fail with an
// error — never a panic or an allocation sized from the claim. The
// first is the 20-byte image that once panicked with "makeslice: cap
// out of range": one file, an empty name, 2^64-1 records.
func TestReadSnapshotCorruptLengths(t *testing.T) {
	uv := func(v uint64) string { return string(binary.AppendUvarint(nil, v)) }
	crashed := snapshotMagic + uv(1) + uv(0) + uv(math.MaxUint64)
	if len(crashed) != 20 {
		t.Fatalf("crafted image is %d bytes, want 20", len(crashed))
	}
	for name, img := range map[string]string{
		"record count 2^64-1": crashed,
		"file count 2^64-1":   snapshotMagic + uv(math.MaxUint64),
		"name length 2^64-1":  snapshotMagic + uv(1) + uv(math.MaxUint64),
		"name over the cap":   snapshotMagic + uv(1) + uv(maxSnapshotName+1) + "abc",
		"record over the cap": snapshotMagic + uv(1) + uv(1) + "f" + uv(1) + uv(maxSnapshotRecord+1),
		"record 2^64-1":       snapshotMagic + uv(1) + uv(1) + "f" + uv(1) + uv(math.MaxUint64) + "xyz",
		"large record cut":    snapshotMagic + uv(1) + uv(1) + "f" + uv(1) + uv(maxSnapshotRecord) + "xyz",
		"name cut short":      snapshotMagic + uv(1) + uv(5) + "ab",
	} {
		fs, err := ReadSnapshot(strings.NewReader(img), 64)
		if err == nil {
			t.Errorf("%s: restored %v, want an error", name, fs.List())
		}
	}
}

// TestReadSnapshotLargeRecord round-trips a record longer than the
// eager-allocation size, which is read incrementally.
func TestReadSnapshotLargeRecord(t *testing.T) {
	fs := New(64)
	rec := bytes.Repeat([]byte("0123456789"), snapshotEagerBytes/5)
	if err := fs.WriteFile("big", [][]byte{rec, []byte("tail")}); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := fs.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&img, 64)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if err := got.Scan("big", func(r []byte) error { recs = append(recs, bytes.Clone(r)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !bytes.Equal(recs[0], rec) || string(recs[1]) != "tail" {
		t.Errorf("restored %d records, first %d bytes", len(recs), len(recs[0]))
	}
}
