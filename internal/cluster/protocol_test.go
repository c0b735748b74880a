package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"mwsjoin/internal/spatial"
)

func TestPackTuplesRoundTrip(t *testing.T) {
	for _, tuples := range [][]spatial.Tuple{
		{},
		{{IDs: []int32{1, 2, 3}}, {IDs: []int32{-1, 0, 1 << 30}}},
		{{IDs: []int32{7}}},
	} {
		b, err := packTuples(tuples)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unpackTuples(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tuples) {
			t.Errorf("round trip: %v became %v", tuples, got)
		}
	}
	if _, err := packTuples([]spatial.Tuple{{IDs: []int32{1, 2}}, {IDs: []int32{3}}}); err == nil {
		t.Error("mixed arities packed without error")
	}
	for _, bad := range [][]byte{nil, {0x80}, {0, 1, 2, 3, 4}, {2, 1, 2, 3, 4}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 2, 3, 4}} {
		if _, err := unpackTuples(bad); err == nil {
			t.Errorf("unpackTuples(%x) returned no error", bad)
		}
	}
}

// FuzzUnpackTuples: arbitrary bytes decode or fail, never panic, and
// whatever decodes re-packs to the same tuples; tuples built from the
// input survive the packer unchanged.
func FuzzUnpackTuples(f *testing.F) {
	for _, tuples := range [][]spatial.Tuple{
		{},
		{{IDs: []int32{1, 2, 3}}, {IDs: []int32{4, 5, 6}}},
		{{IDs: []int32{-1, 1 << 30}}},
	} {
		b, err := packTuples(tuples)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		tuples, err := unpackTuples(b)
		if err == nil {
			ids := 0
			for _, tu := range tuples {
				ids += len(tu.IDs)
			}
			if 4*ids > len(b) {
				t.Fatalf("%d input bytes decoded to %d IDs", len(b), ids)
			}
			repacked, err := packTuples(tuples)
			if err != nil {
				t.Fatalf("decoded tuples do not re-pack: %v", err)
			}
			again, err := unpackTuples(repacked)
			if err != nil || !reflect.DeepEqual(again, tuples) {
				t.Fatalf("re-packed tuples do not round-trip (err %v)", err)
			}
		}

		if len(b) == 0 {
			return
		}
		arity := 1 + int(b[0]%4)
		body := b[1:]
		built := make([]spatial.Tuple, len(body)/arity)
		for i := range built {
			built[i].IDs = make([]int32, arity)
			for j := range built[i].IDs {
				built[i].IDs[j] = int32(body[i*arity+j]) * 0x01010101
			}
		}
		packed, err := packTuples(built)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unpackTuples(packed)
		if err != nil || !reflect.DeepEqual(got, built) {
			t.Fatalf("packer round trip failed for %d tuples of arity %d (err %v)", len(built), arity, err)
		}
	})
}

// FuzzUnpackRelation: arbitrary item bytes unpack or fail, never
// panic, and whatever unpacks packs back to the same bytes and hash.
func FuzzUnpackRelation(f *testing.F) {
	for _, rel := range testRelations(5, 2, 3) {
		items := PackRelation(rel).Items
		f.Add(items)
		f.Add(items[:len(items)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, items []byte) {
		rel, err := UnpackRelation(RelationData{Name: "F", Items: items})
		if err != nil {
			return
		}
		rd := PackRelation(rel)
		if !bytes.Equal(rd.Items, items) {
			t.Fatalf("%d item bytes did not round-trip", len(items))
		}
		if rd.Hash != itemsHash(items) {
			t.Fatal("packed hash differs from the hash of the input")
		}
	})
}
