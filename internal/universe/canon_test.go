package universe

import (
	"errors"
	"strings"
	"testing"

	"hpl/internal/trace"
)

// tieRecords returns emission records of three distinct computations —
// one of length 1 and two of length 2 — in canonical order.
func tieRecords(t *testing.T) ([]enode, []int32) {
	t.Helper()
	recs := []enode{
		{comp: trace.NewBuilder().Internal("p", "a").MustBuild()},
		{comp: trace.NewBuilder().Internal("p", "a").Internal("p", "b").MustBuild()},
		{comp: trace.NewBuilder().Internal("p", "a").Internal("p", "c").MustBuild()},
	}
	order, err := canonicalOrder(recs, []int32{0, 1, 2}, make([]int32, len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(recs) {
		t.Fatalf("canonical order has %d records, want %d", len(order), len(recs))
	}
	return recs, order
}

// TestCanonicalOrderSameHashDifferentLength pins the length safety net:
// computations with equal 128-bit hashes but different lengths are
// certainly distinct, so the tie check keeps both.
func TestCanonicalOrderSameHashDifferentLength(t *testing.T) {
	recs, order := tieRecords(t)
	forged := trace.Hash128{Hi: 7, Lo: 9}
	// The length-1 record and the length-2 record after it share it.
	hash := func(c *trace.Computation) trace.Hash128 {
		if c == recs[order[0]].comp || c == recs[order[1]].comp {
			return forged
		}
		return c.Hash()
	}
	if err := checkHashTies(recs, order, hash); err != nil {
		t.Fatalf("equal hashes at different lengths: %v", err)
	}
}

// TestCanonicalOrderDetectsCollision: two distinct computations of one
// length with equal hashes fail with ErrHashCollision naming both,
// since the universe's hash index could not tell them apart.
func TestCanonicalOrderDetectsCollision(t *testing.T) {
	recs, order := tieRecords(t)
	forged := trace.Hash128{Hi: 1, Lo: 2}
	hash := func(c *trace.Computation) trace.Hash128 {
		if c.Len() == 2 {
			return forged
		}
		return c.Hash()
	}
	err := checkHashTies(recs, order, hash)
	if !errors.Is(err, ErrHashCollision) {
		t.Fatalf("err = %v, want ErrHashCollision", err)
	}
	for _, r := range recs[1:] {
		if !strings.Contains(err.Error(), r.comp.Key()) {
			t.Fatalf("error %q does not name %q", err, r.comp.Key())
		}
	}
}
