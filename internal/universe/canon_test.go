package universe

import (
	"errors"
	"strings"
	"testing"

	"hpl/internal/trace"
)

// tieRecords returns emission records of three distinct computations —
// one of length 1 and two of length 2 — and their keys, by record.
func tieRecords() (records, []string) {
	comps := []*trace.Computation{
		trace.NewBuilder().Internal("p", "a").MustBuild(),
		trace.NewBuilder().Internal("p", "a").Internal("p", "b").MustBuild(),
		trace.NewBuilder().Internal("p", "a").Internal("p", "c").MustBuild(),
	}
	recs := records{new([1 << logChunkBits]record)}
	keys := make([]string, len(comps))
	for k, c := range comps {
		*recs.at(int32(k)) = record{hash: c.Hash(), n: int32(c.Len())}
		keys[k] = c.Key()
	}
	return recs, keys
}

// TestCanonicalOrderSameHashDifferentLength pins the length safety net:
// computations with equal 128-bit hashes but different lengths are
// certainly distinct, so the tie check keeps both.
func TestCanonicalOrderSameHashDifferentLength(t *testing.T) {
	recs, keys := tieRecords()
	key := func(k int32) string { return keys[k] }
	order, err := canonicalOrder(recs, []int32{0, 1, 2}, make([]int32, len(keys)), key)
	if err != nil {
		t.Fatal(err)
	}
	// The length-1 record and the length-2 record after it share one.
	forged := trace.Hash128{Hi: 7, Lo: 9}
	recs.at(order[0]).hash = forged
	recs.at(order[1]).hash = forged
	if err := checkHashTies(recs, order, key); err != nil {
		t.Fatalf("equal hashes at different lengths: %v", err)
	}
}

// TestCanonicalOrderDetectsCollision: two distinct computations of one
// length with equal hashes fail with ErrHashCollision naming both,
// since the universe's hash index could not tell them apart.
func TestCanonicalOrderDetectsCollision(t *testing.T) {
	recs, keys := tieRecords()
	forged := trace.Hash128{Hi: 1, Lo: 2}
	for k := range keys {
		if r := recs.at(int32(k)); r.n == 2 {
			r.hash = forged
		}
	}
	_, err := canonicalOrder(recs, []int32{0, 1, 2}, make([]int32, len(keys)), func(k int32) string { return keys[k] })
	if !errors.Is(err, ErrHashCollision) {
		t.Fatalf("err = %v, want ErrHashCollision", err)
	}
	for _, k := range keys[1:] {
		if !strings.Contains(err.Error(), k) {
			t.Fatalf("error %q does not name %q", err, k)
		}
	}
}
