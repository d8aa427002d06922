package store

import (
	"bytes"
	"fmt"
	"testing"
)

// TestIndexKeyPrefixFree pins the property the codec exists for: the prefix
// of one component tuple never covers keys of a different tuple, even when
// components embed the old separator byte or shift bytes across the
// component boundary.
func TestIndexKeyPrefixFree(t *testing.T) {
	tuples := [][2]string{
		{"a", "b"},
		{"a", "b\x00c"},
		{"a\x00b", "c"},
		{"a\x00", "bc"},
		{"ab", "c"},
		{"a", "bc"},
		{"", "ab"},
		{"ab", ""},
		{"", ""},
		{"a\xffb", "c"},
	}
	for i, ti := range tuples {
		for j, tj := range tuples {
			ki := IndexKey(7, ti[0], ti[1])
			pj := IndexKeyPrefix(tj[0], tj[1])
			covered := bytes.HasPrefix(ki, pj)
			if (i == j) != covered {
				t.Errorf("tuple %q/%q vs prefix %q/%q: covered=%v", ti[0], ti[1], tj[0], tj[1], covered)
			}
		}
	}
}

// TestIndexKeyScanIsolation runs the same property through the tree itself:
// a ScanPrefix over one tuple must see exactly its own ids, in ascending
// order, with adversarial sibling tuples present.
func TestIndexKeyScanIsolation(t *testing.T) {
	bt := NewBTree()
	tuples := [][2]string{{"s", "k"}, {"s\x00k", ""}, {"s", "k\x00"}, {"sk", ""}, {"", "sk"}}
	for ti, tu := range tuples {
		for id := uint64(1); id <= 8; id++ {
			bt.Insert(IndexKey(uint64(ti)*100+id, tu[0], tu[1]), nil)
		}
	}
	for ti, tu := range tuples {
		var got []uint64
		prefix := IndexKeyPrefix(tu[0], tu[1])
		bt.ScanPrefixFrom(prefix, prefix, func(k, _ []byte) bool {
			got = append(got, IndexKeyID(k))
			return true
		})
		if len(got) != 8 {
			t.Fatalf("tuple %q/%q: got %d ids %v, want 8", tu[0], tu[1], len(got), got)
		}
		for i, id := range got {
			if want := uint64(ti)*100 + uint64(i) + 1; id != want {
				t.Fatalf("tuple %q/%q: id[%d] = %d, want %d (ascending id order)", tu[0], tu[1], i, id, want)
			}
		}
	}
}

// TestIndexKeyRangeScan checks the big-endian id suffix gives contiguous
// [lo, hi] id windows under a fixed tuple.
func TestIndexKeyRangeScan(t *testing.T) {
	bt := NewBTree()
	for id := uint64(1); id <= 100; id++ {
		bt.Insert(IndexKey(id, "p", "v"), nil)
	}
	lo := AppendIndexKeyID(IndexKeyPrefix("p", "v"), 40)
	hi := AppendIndexKeyID(IndexKeyPrefix("p", "v"), 61) // Scan is [lo, hi)
	var got []uint64
	bt.Scan(lo, hi, func(k, _ []byte) bool {
		got = append(got, IndexKeyID(k))
		return true
	})
	if len(got) != 21 || got[0] != 40 || got[len(got)-1] != 60 {
		t.Fatalf("range scan got %v", got)
	}
}

func TestIndexKeyLongComponents(t *testing.T) {
	long := string(bytes.Repeat([]byte{0x80}, 300)) // forces a multi-byte uvarint
	k1 := IndexKey(1, long, "x")
	p1 := IndexKeyPrefix(long, "x")
	if !bytes.HasPrefix(k1, p1) {
		t.Fatal("prefix must cover its own key")
	}
	p2 := IndexKeyPrefix(long + "x")
	if bytes.HasPrefix(k1, p2) || bytes.HasPrefix(AppendIndexKeyID(p2, 1), p1) {
		t.Fatal("long components must stay prefix-free")
	}
	if got := IndexKeyID(k1); got != 1 {
		t.Fatalf("id = %d", got)
	}
	if s := fmt.Sprintf("%x", k1[len(k1)-8:]); s != "0000000000000001" {
		t.Fatalf("suffix %s", s)
	}
}
