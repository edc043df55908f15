package universe_test

import (
	"bytes"
	"fmt"
	"testing"

	"hpl/internal/universe"
)

// TestRoutesAgreeOnColumns: every route to a universe — enumeration at
// parallelism 1, 2 and 8, Extend from one event less at each of them,
// and a snapshot load — yields the same columns, for every protocol,
// full and quotient; and the snapshot bytes are identical whichever
// parallelism enumerated the universe.
func TestRoutesAgreeOnColumns(t *testing.T) {
	for _, e := range allProtocols(t) {
		t.Run(e.name, func(t *testing.T) {
			for _, s := range protocolSymmetries(e.p) {
				want := universe.MustEnumerateWith(e.p, symOptions(e.maxEvents, 1, s)...)
				base := universe.MustEnumerateWith(e.p, symOptions(e.maxEvents-1, 1, s)...)
				var snap []byte
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("quotient=%v workers=%d", s != nil, workers)
					built := universe.MustEnumerateWith(e.p, symOptions(e.maxEvents, workers, s)...)
					ext, err := universe.Extend(base, universe.WithMaxEvents(e.maxEvents), universe.WithParallelism(workers))
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := universe.WriteSnapshot(&buf, built, "routes"); err != nil {
						t.Fatal(err)
					}
					if snap == nil {
						snap = bytes.Clone(buf.Bytes())
					} else if !bytes.Equal(buf.Bytes(), snap) {
						t.Fatalf("%s: snapshot bytes differ from workers=1's", label)
					}
					loaded, _, err := universe.ReadSnapshot(&buf)
					if err != nil {
						t.Fatal(err)
					}
					for route, u := range map[string]*universe.Universe{"built": built, "extended": ext, "loaded": loaded} {
						if d := universe.ColumnsMismatch(u, want); d != "" {
							t.Fatalf("%s %s: %s", label, route, d)
						}
					}
				}
			}
		})
	}
}
