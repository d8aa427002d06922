package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBTreeBasic(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Get([]byte("missing")); ok {
		t.Fatal("empty tree get")
	}
	bt.Insert([]byte("b"), []byte("2"))
	bt.Insert([]byte("a"), []byte("1"))
	bt.Insert([]byte("c"), []byte("3"))
	if v, ok := bt.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatal("get b")
	}
	if bt.Len() != 3 {
		t.Fatal("len")
	}
	// Overwrite.
	if bt.Insert([]byte("b"), []byte("2b")) {
		t.Fatal("overwrite should not report new")
	}
	if v, _ := bt.Get([]byte("b")); string(v) != "2b" {
		t.Fatal("overwrite")
	}
	if !bt.Delete([]byte("b")) || bt.Delete([]byte("b")) {
		t.Fatal("delete semantics")
	}
	if bt.Len() != 2 {
		t.Fatal("len after delete")
	}
}

func TestBTreeScanRange(t *testing.T) {
	bt := NewBTreeDegree(3) // small degree forces splits
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%04d", i)
		bt.Insert([]byte(key), []byte{byte(i)})
	}
	var got []string
	bt.Scan([]byte("k0100"), []byte("k0110"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "k0100" || got[9] != "k0109" {
		t.Fatalf("range scan: %v", got)
	}
	// Full scan in order.
	prev := ""
	n := 0
	bt.Scan(nil, nil, func(k, _ []byte) bool {
		if string(k) <= prev {
			t.Fatalf("scan order violated: %q after %q", k, prev)
		}
		prev = string(k)
		n++
		return true
	})
	if n != 1000 {
		t.Fatalf("full scan count: %d", n)
	}
}

func TestBTreeScanPrefix(t *testing.T) {
	bt := NewBTree()
	bt.Insert([]byte("orders\x0042\x00m1"), nil)
	bt.Insert([]byte("orders\x0042\x00m2"), nil)
	bt.Insert([]byte("orders\x0043\x00m3"), nil)
	bt.Insert([]byte("other\x0042\x00m4"), nil)
	n := 0
	prefix := []byte("orders\x0042\x00")
	bt.ScanPrefixFrom(prefix, prefix, func(_, _ []byte) bool { n++; return true })
	if n != 2 {
		t.Fatalf("prefix scan: %d", n)
	}
	// Prefix of all 0xFF bytes has a nil end.
	if prefixEnd([]byte{0xFF, 0xFF}) != nil {
		t.Fatal("prefixEnd overflow")
	}
	if !bytes.Equal(prefixEnd([]byte{1, 0xFF}), []byte{2}) {
		t.Fatal("prefixEnd carry")
	}
}

// TestBTreeQuickAgainstMap drives the tree with random operations and
// checks every observable against a reference map.
func TestBTreeQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bt := NewBTreeDegree(2 + r.Intn(4))
		ref := map[string]string{}
		for op := 0; op < 500; op++ {
			key := fmt.Sprintf("key-%03d", r.Intn(100))
			switch r.Intn(3) {
			case 0:
				val := fmt.Sprintf("v%d", op)
				wasNew := bt.Insert([]byte(key), []byte(val))
				_, existed := ref[key]
				if wasNew == existed {
					return false
				}
				ref[key] = val
			case 1:
				deleted := bt.Delete([]byte(key))
				_, existed := ref[key]
				if deleted != existed {
					return false
				}
				delete(ref, key)
			case 2:
				v, ok := bt.Get([]byte(key))
				rv, rok := ref[key]
				if ok != rok || (ok && string(v) != rv) {
					return false
				}
			}
			if bt.Len() != len(ref) {
				return false
			}
		}
		// Final full scan must match the sorted reference.
		var want []string
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		bt.Scan(nil, nil, func(k, v []byte) bool {
			if ref[string(k)] != string(v) {
				return false
			}
			got = append(got, string(k))
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapQuickAgainstMap drives heap insert/delete randomly and compares
// against a reference, including crash-recovery at the end.
func TestHeapQuickAgainstMap(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.SyncCommits = false
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.CreateHeap("q")
	r := rand.New(rand.NewSource(7))
	ref := map[RID]string{}
	for op := 0; op < 300; op++ {
		tx := s.Begin()
		abort := r.Intn(4) == 0
		staged := map[RID]string{}
		stagedDel := map[RID]bool{}
		for i := 0; i < 1+r.Intn(5); i++ {
			if r.Intn(3) > 0 || len(ref) == 0 {
				size := 1 + r.Intn(3000)
				payload := bytes.Repeat([]byte{byte(op)}, size)
				rid, err := tx.Insert(h, payload)
				if err != nil {
					t.Fatal(err)
				}
				staged[rid] = string(payload)
			} else {
				for rid := range ref {
					if stagedDel[rid] {
						continue // already deleted in this transaction
					}
					if err := tx.Delete(h, rid); err != nil {
						t.Fatal(err)
					}
					stagedDel[rid] = true
					break
				}
			}
		}
		if abort {
			tx.Abort()
		} else {
			tx.Commit()
			// Deletes precede inserts: an insert may reuse the slot (and
			// hence the RID) of a record deleted earlier in the same
			// transaction.
			for rid := range stagedDel {
				delete(ref, rid)
			}
			for rid, v := range staged {
				ref[rid] = v
			}
		}
	}
	s.log.flush(^uint64(0) >> 1)
	s.CrashForTest()

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2, _ := s2.Heap("q")
	got := map[RID]string{}
	s2.Scan(h2, func(rid RID, data []byte) bool {
		got[rid] = string(data)
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("after recovery: %d records, want %d", len(got), len(ref))
	}
	for rid, v := range ref {
		if got[rid] != v {
			t.Fatalf("record %v differs (len %d vs %d)", rid, len(got[rid]), len(v))
		}
	}
}

// TestBTreeBuildSortedMatchesInserts builds trees bottom-up at the sizes
// around a leaf's fill and a node's capacity, and at a restart's size, and
// checks each against a tree grown by inserts: the same Scan, Get and Len,
// before and after random inserts (which split the built nodes) and
// deletes applied to both, while readers walk the built tree.
func TestBTreeBuildSortedMatchesInserts(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
	same := func(t *testing.T, built, grown *BTree, n int) {
		t.Helper()
		if built.Len() != grown.Len() {
			t.Fatalf("Len: built %d, grown %d", built.Len(), grown.Len())
		}
		var b, g []string
		built.Scan(nil, nil, func(k, v []byte) bool { b = append(b, string(k)+"="+string(v)); return true })
		grown.Scan(nil, nil, func(k, v []byte) bool { g = append(g, string(k)+"="+string(v)); return true })
		if fmt.Sprint(b) != fmt.Sprint(g) {
			t.Fatalf("Scan differs: built %d entries, grown %d", len(b), len(g))
		}
		for i := 0; i < 2*n+4; i++ {
			bv, bok := built.Get(key(i))
			gv, gok := grown.Get(key(i))
			if bok != gok || !bytes.Equal(bv, gv) {
				t.Fatalf("Get(%s): built %q %v, grown %q %v", key(i), bv, bok, gv, gok)
			}
		}
		lo, hi := key(n/3), key(n/3+n/2+1)
		b, g = nil, nil
		built.Scan(lo, hi, func(k, _ []byte) bool { b = append(b, string(k)); return true })
		grown.Scan(lo, hi, func(k, _ []byte) bool { g = append(g, string(k)); return true })
		if fmt.Sprint(b) != fmt.Sprint(g) {
			t.Fatalf("Scan[%s, %s) differs: built %v, grown %v", lo, hi, b, g)
		}
	}
	for _, n := range []int{0, 1, bulkFill - 1, bulkFill, bulkFill + 1, 2*64 - 2, 2*64 - 1, 2 * 64, 20000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			// Even keys are built; the odd ones between them are inserted
			// later, into the middle of the built leaves.
			keys := make([][]byte, n)
			vals := make([][]byte, n)
			grown := NewBTree()
			for i := range keys {
				keys[i], vals[i] = key(2*i), []byte(fmt.Sprint(i))
				grown.Insert(keys[i], vals[i])
			}
			built := NewBTreeSorted(keys, vals)
			same(t, built, grown, n)

			// Readers walk the built tree while it changes: keys that are
			// multiples of 10 are never deleted.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						if n > 0 {
							if i := 10 * rng.Intn((2*n+9)/10); i < 2*n {
								if _, ok := built.Get(key(i)); !ok {
									t.Errorf("stable key %s missing", key(i))
									return
								}
							}
						}
						var prev []byte
						built.Scan(nil, nil, func(k, _ []byte) bool {
							if prev != nil && bytes.Compare(prev, k) >= 0 {
								t.Errorf("scan out of order: %q after %q", k, prev)
								return false
							}
							prev = append(prev[:0], k...)
							return true
						})
					}
				}(r)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for op := 0; op < 3*n+200; op++ {
				i := rng.Intn(2*n + 4)
				if rng.Intn(3) == 0 && i%10 != 0 {
					if built.Delete(key(i)) != grown.Delete(key(i)) {
						t.Fatalf("Delete(%s) disagrees", key(i))
					}
					continue
				}
				v := []byte(fmt.Sprint("op", op))
				if built.Insert(key(i), v) != grown.Insert(key(i), v) {
					t.Fatalf("Insert(%s) disagrees", key(i))
				}
			}
			close(stop)
			wg.Wait()
			same(t, built, grown, n)
		})
	}
	if v, ok := NewBTreeSorted([][]byte{key(1)}, nil).Get(key(1)); !ok || v != nil {
		t.Fatalf("nil vals: Get = %q, %v", v, ok)
	}
}
