package universe

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hpl/internal/trace"
)

// TestCanonicalOrderSameHashDifferentLength pins the length safety net:
// computations with equal 128-bit hashes but different lengths are
// certainly distinct, so building the hash index over them succeeds and
// finds both.
func TestCanonicalOrderSameHashDifferentLength(t *testing.T) {
	u := freeTwoProc(t, 3)
	if u.length[1] != 1 || u.length[u.Len()-1] != 3 {
		t.Fatalf("unexpected lengths %d, %d", u.length[1], u.length[u.Len()-1])
	}
	u.hash[u.Len()-1] = u.hash[1]
	if i := u.IndexOf(u.At(0)); i != 0 {
		t.Fatalf("IndexOf(null) = %d", i)
	}
	// The earlier member stays reachable: the index keys on length too.
	if i := u.IndexOf(u.At(1)); i != 1 {
		t.Fatalf("IndexOf(member 1) = %d after a longer member took its hash", i)
	}
}

// TestCanonicalOrderDetectsCollision: two siblings with equal hashes
// fail the sibling sort with ErrHashCollision naming both, since
// neither their order nor the hash index could tell them apart.
func TestCanonicalOrderDetectsCollision(t *testing.T) {
	keys := []string{"a", "b", "c"}
	forged := trace.Hash128{Hi: 1, Lo: 2}
	kids := []record{{hash: forged, sv: 0}, {hash: trace.Hash128{Hi: 9}, sv: 1}, {hash: forged, sv: 2}}
	err := sortSiblings(kids, func(i int) string { return keys[kids[i].sv] })
	if !errors.Is(err, ErrHashCollision) {
		t.Fatalf("err = %v, want ErrHashCollision", err)
	}
	for _, k := range []string{`"a"`, `"c"`} {
		if !strings.Contains(err.Error(), k) {
			t.Fatalf("error %q does not name %s", err, k)
		}
	}
	ok := []record{{hash: trace.Hash128{Hi: 3}}, {hash: trace.Hash128{Hi: 1}}, {hash: trace.Hash128{Hi: 2}}}
	if err := sortSiblings(ok, nil); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 3} {
		if ok[i].hash.Hi != want {
			t.Fatalf("sorted siblings: %v", ok)
		}
	}
}

// TestHashIndexDetectsCollision: two members of one length that are
// not siblings, forged to equal hashes, fail where the hash index is
// built — the first IndexOf, and every one after it — with
// ErrHashCollision naming both members.
func TestHashIndexDetectsCollision(t *testing.T) {
	u := freeTwoProc(t, 3)
	x := u.prefixIndex()
	a, b := -1, -1
	for j := 1; j < u.Len(); j++ {
		if u.length[j] == 2 {
			if a < 0 {
				a = j
			} else if x.parent[j] != x.parent[a] {
				b = j
				break
			}
		}
	}
	if b < 0 {
		t.Fatal("no two length-2 members with different parents")
	}
	u.hash[b] = u.hash[a]
	for range 2 {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrHashCollision) {
					t.Fatalf("IndexOf recovered %v, want ErrHashCollision", err)
				}
				for _, j := range []int{a, b} {
					if !strings.Contains(err.Error(), u.At(j).Key()) {
						t.Fatalf("error %q does not name member %d", err, j)
					}
				}
			}()
			u.IndexOf(u.At(0))
		}()
	}
}

// TestSnapshotRejectsSiblingTie: a file in which two siblings carry the
// same event — hence the same re-derived hash — fails the loader's
// sibling-order check.
func TestSnapshotRejectsSiblingTie(t *testing.T) {
	u := freeTwoProc(t, 3)
	x := u.prefixIndex()
	first := make(map[int32]int)
	for j := 1; j < u.Len(); j++ {
		if _, ok := first[x.event[j]]; !ok {
			first[x.event[j]] = j
		}
	}
	// Siblings j-1, j whose events both first occur earlier, so only the
	// sibling order breaks when j repeats j-1's event.
	j := u.Len() - 1
	for ; j > 1; j-- {
		if x.parent[j] == x.parent[j-1] && first[x.event[j]] < j-1 && first[x.event[j-1]] < j-1 {
			break
		}
	}
	if j <= 1 {
		t.Fatal("no suitable sibling pair")
	}
	x.event[j] = x.event[j-1]
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, u, "tie"); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadSnapshot(&buf)
	if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "sibling order") {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt for sibling order", err)
	}
}

// TestSnapshotRejectsRepeatedEvent: the event table of a file must not
// list an event twice — not even the last one again — since member
// event IDs index it.
func TestSnapshotRejectsRepeatedEvent(t *testing.T) {
	u := freeTwoProc(t, 3)
	x := u.prefixIndex()
	x.events = append(x.events, x.events[len(x.events)-1])
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, u, "repeat"); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadSnapshot(&buf)
	if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt for a repeated event", err)
	}
}
