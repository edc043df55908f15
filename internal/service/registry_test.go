package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpl"
)

func smallSpec(procs ...hpl.ProcID) hpl.UniverseSpec {
	return hpl.UniverseSpec{Procs: procs, MaxSends: 1, MaxEvents: 3}
}

// TestSingleflight checks the cache's core promise: N concurrent misses
// on one digest trigger exactly one build, and every waiter gets the
// same entry.
func TestSingleflight(t *testing.T) {
	r := NewRegistry(Config{})
	var builds atomic.Int64
	inner := r.buildFn
	release := make(chan struct{})
	r.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		builds.Add(1)
		<-release // hold every waiter in the singleflight window
		return inner(ctx, spec)
	}

	const waiters = 32
	spec := smallSpec("p", "q")
	entries := make([]*Entry, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := r.Get(context.Background(), spec)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			entries[i] = e
		}(i)
	}
	// Give every goroutine time to join the call before releasing it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent misses ran %d builds, want 1", waiters, got)
	}
	for i, e := range entries {
		if e == nil || e != entries[0] {
			t.Fatalf("waiter %d got a different entry", i)
		}
	}
	if _, cached, _ := r.Get(context.Background(), spec); !cached {
		t.Errorf("follow-up Get missed the cache")
	}
	st := r.Stats()
	if st.Builds != 1 || st.Universes != 1 {
		t.Errorf("stats after singleflight: %+v", st)
	}
}

// TestLRUEviction pins the eviction order under a small byte budget:
// touching an entry protects it, the least-recently-used one goes.
func TestLRUEviction(t *testing.T) {
	specA := smallSpec("a1", "a2")
	specB := smallSpec("b1", "b2")
	specC := smallSpec("c1", "c2")

	// Budget sized for two of the three identical-shape universes.
	probe := NewRegistry(Config{})
	e, _, err := probe.Get(context.Background(), specA)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Config{MaxBytes: 2*e.Bytes() + e.Bytes()/2})

	for _, s := range []hpl.UniverseSpec{specA, specB} {
		if _, _, err := r.Get(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B is the LRU victim when C arrives.
	if _, cached, _ := r.Get(context.Background(), specA); !cached {
		t.Fatal("A not cached before eviction round")
	}
	if _, _, err := r.Get(context.Background(), specC); err != nil {
		t.Fatal(err)
	}

	if !r.Cached(specA) {
		t.Errorf("recently-touched A was evicted")
	}
	if r.Cached(specB) {
		t.Errorf("least-recently-used B survived")
	}
	if !r.Cached(specC) {
		t.Errorf("just-inserted C missing")
	}
	if st := r.Stats(); st.Evictions != 1 || st.Universes != 2 || st.Bytes > st.MaxBytes {
		t.Errorf("stats after eviction: %+v", st)
	}
}

// TestBudgetExceeded checks graceful degradation: a universe whose
// estimated footprint exceeds the whole budget is rejected with a
// structured 4xx, not cached and not OOMed.
func TestBudgetExceeded(t *testing.T) {
	r := NewRegistry(Config{MaxBytes: 1024}) // a few computations' worth
	_, _, err := r.Get(context.Background(), smallSpec("p", "q"))
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("want *Error, got %v", err)
	}
	if serr.Status != http.StatusRequestEntityTooLarge || serr.Code != CodeBudgetExceeded {
		t.Errorf("want 413/%s, got %d/%s", CodeBudgetExceeded, serr.Status, serr.Code)
	}
	if st := r.Stats(); st.Universes != 0 || st.Bytes != 0 {
		t.Errorf("rejected universe left residue: %+v", st)
	}
}

// TestCapExceeded checks that a spec whose enumeration overruns the
// member cap fails with a structured 422 naming the cap.
func TestCapExceeded(t *testing.T) {
	r := NewRegistry(Config{MaxMembers: 10})
	_, _, err := r.Get(context.Background(), smallSpec("p", "q"))
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("want *Error, got %v", err)
	}
	if serr.Status != http.StatusUnprocessableEntity || serr.Code != CodeUniverseTooLarge {
		t.Errorf("want 422/%s, got %d/%s", CodeUniverseTooLarge, serr.Status, serr.Code)
	}
}

// TestBadSpec checks the 400 path.
func TestBadSpec(t *testing.T) {
	r := NewRegistry(Config{})
	_, _, err := r.Get(context.Background(), hpl.UniverseSpec{Protocol: "chord", Procs: []hpl.ProcID{"p"}})
	var serr *Error
	if !errors.As(err, &serr) || serr.Status != http.StatusBadRequest || serr.Code != CodeBadSpec {
		t.Errorf("want 400/%s, got %v", CodeBadSpec, err)
	}
}

// TestBuildAbandonedByLastWaiter pins the refcounted cancellation
// contract: a build keeps running while any waiter remains, and its
// context is cancelled only when the last waiter's request context is
// done.
func TestBuildAbandonedByLastWaiter(t *testing.T) {
	r := NewRegistry(Config{})
	buildCtxCh := make(chan context.Context, 1)
	r.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		buildCtxCh <- ctx
		<-ctx.Done() // run "forever" until abandoned
		return nil, ctx.Err()
	}

	spec := smallSpec("p", "q")
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { _, _, err := r.Get(ctx1, spec); errs <- err }()
	go func() { _, _, err := r.Get(ctx2, spec); errs <- err }()

	buildCtx := <-buildCtxCh
	// Both waiters joined (poll: the second Get may still be en route).
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		n := 0
		for _, c := range r.calls {
			n = c.waiters
		}
		r.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second waiter never joined the build")
		}
		time.Sleep(time.Millisecond)
	}

	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: want context.Canceled, got %v", err)
	}
	select {
	case <-buildCtx.Done():
		t.Fatal("build cancelled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}

	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second waiter: want context.Canceled, got %v", err)
	}
	select {
	case <-buildCtx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("build not abandoned after the last waiter left")
	}

	// The dead call must drain so a later Get starts a fresh build.
	deadline = time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.calls)
		r.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned call never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGetAfterAbandonedBuildRebuilds checks that an abandoned build does
// not poison the key: the next Get with a live context succeeds.
func TestGetAfterAbandonedBuildRebuilds(t *testing.T) {
	r := NewRegistry(Config{})
	spec := smallSpec("p", "q")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Get(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Get: %v", err)
	}
	e, _, err := r.Get(context.Background(), spec)
	if err != nil {
		t.Fatalf("Get after abandoned build: %v", err)
	}
	if e.Checker.Universe().Len() == 0 {
		t.Fatal("rebuilt universe is empty")
	}
}

// TestGetPreCancelledStartsNoBuild checks that a Get whose context is
// already cancelled returns ctx.Err() without counting a miss or
// launching a build.
func TestGetPreCancelledStartsNoBuild(t *testing.T) {
	r := NewRegistry(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		if _, _, err := r.Get(ctx, smallSpec("p", "q")); !errors.Is(err, context.Canceled) {
			t.Fatalf("Get %d with cancelled context: %v", i, err)
		}
	}
	r.mu.Lock()
	builds, misses, calls := r.builds, r.misses, len(r.calls)
	r.mu.Unlock()
	if builds != 0 || misses != 0 || calls != 0 {
		t.Fatalf("cancelled Gets left builds=%d misses=%d in-flight=%d, want 0", builds, misses, calls)
	}
}

// TestEstimateBytesScales sanity-checks the accounting estimate: a
// larger universe must account strictly larger, and every universe
// accounts nonzero.
func TestEstimateBytesScales(t *testing.T) {
	small, err := hpl.CheckSpec(smallSpec("p", "q"))
	if err != nil {
		t.Fatal(err)
	}
	big, err := hpl.CheckSpec(hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	sb, bb := EstimateBytes(small.Universe()), EstimateBytes(big.Universe())
	if sb <= 0 || bb <= sb {
		t.Errorf("estimate does not scale: small=%d big=%d", sb, bb)
	}
}
