package universe_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hpl/internal/universe"
)

// FuzzReadSnapshot hammers the snapshot decoder with mutated inputs:
// whatever the bytes, ReadSnapshot must return an error or a universe —
// never panic, never hang, never hand back a structure whose basic
// invariants are broken. The corpus is seeded with a full well-formed
// snapshot (every section present), truncations and small corruptions
// of it, a quotient snapshot with and without impossible orbit sizes,
// and headers of the retired versions 1 and 2, so the fuzzer starts at
// the interesting frontier of almost-valid inputs instead of random
// noise. Whatever follows a well-formed header of another version, the
// answer is ErrSnapshotVersion.
func FuzzReadSnapshot(f *testing.F) {
	golden := goldenBytes(f)
	f.Add(golden)
	for _, cut := range []int{0, 1, 8, len(golden) / 2, len(golden) - 1} {
		if cut <= len(golden) {
			f.Add(golden[:cut])
		}
	}
	for _, flip := range []int{4, len(golden) / 3, len(golden) - 2} {
		mut := bytes.Clone(golden)
		mut[flip] ^= 0xff
		f.Add(mut)
	}
	// Checksum-valid quotients whose orbit sizes are impossible: sizes
	// that do not divide |S3|, and sizes whose sum wraps an int64.
	orbits, members := orbitSnapshot(f)
	f.Add(orbits)
	f.Add(withOrbitSizes(orbits, members, 7, 7))
	f.Add(withOrbitSizes(orbits, members, math.MaxInt64, math.MaxInt64))
	for _, v := range []byte{1, 2} {
		old := bytes.Clone(golden)
		old[6] = v
		f.Add(old)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		u, digest, err := universe.ReadSnapshot(bytes.NewReader(data))
		if len(data) >= 15 && string(data[:6]) == "HPLSNP" && data[6] != 3 && !errors.Is(err, universe.ErrSnapshotVersion) {
			t.Fatalf("version %d header: err = %v, want ErrSnapshotVersion", data[6], err)
		}
		if err != nil {
			return
		}
		// Accepted input: the decoded universe must be internally
		// consistent enough to use.
		if u.Len() < 1 {
			t.Fatalf("decoded universe with %d members (digest %q)", u.Len(), digest)
		}
		for i := 0; i < u.Len(); i++ {
			_ = u.At(i).String()
		}
		// And it must survive a write→read round trip: what the decoder
		// accepts, the encoder can reproduce.
		var buf bytes.Buffer
		if err := universe.WriteSnapshot(&buf, u, digest); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		u2, digest2, err := universe.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if digest2 != digest || u2.Len() != u.Len() {
			t.Fatalf("round trip drifted: %d members/%q vs %d/%q",
				u2.Len(), digest2, u.Len(), digest)
		}
	})
}
