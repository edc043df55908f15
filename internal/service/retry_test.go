package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hpl"
)

// fakeSleep records requested backoff durations without sleeping, so
// retry tests run in microseconds and stay deterministic.
type fakeSleep struct {
	delays []time.Duration
	fail   func(n int) error // nil: never fail
}

func (f *fakeSleep) sleep(ctx context.Context, d time.Duration) error {
	f.delays = append(f.delays, d)
	if f.fail != nil {
		return f.fail(len(f.delays))
	}
	return nil
}

func testPolicy(f *fakeSleep) *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts: 4,
		sleep:       f.sleep,
		jitter:      func() float64 { return 0 },
	}
}

// flakyServer fails the first n requests with status, then serves a
// valid stats response.
func flakyServer(t *testing.T, n int, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(n) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(&Error{Status: status, Code: "unavailable", Message: "try later"})
			return
		}
		json.NewEncoder(w).Encode(StatsResponse{Universe: "d", Members: 1})
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func specPQ() hpl.UniverseSpec {
	return hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 3}
}

func TestClientRetries503ThenSucceeds(t *testing.T) {
	srv, hits := flakyServer(t, 2, http.StatusServiceUnavailable)
	f := &fakeSleep{}
	c := &Client{Base: srv.URL, Retry: testPolicy(f)}
	out, err := c.UniverseStats(context.Background(), specPQ())
	if err != nil {
		t.Fatalf("expected success after retries, got %v", err)
	}
	if out.Universe != "d" {
		t.Errorf("unexpected response %+v", out)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server hit %d times, want 3", got)
	}
	// Exponential backoff with zero jitter: baseDelay, then twice that.
	want := []time.Duration{baseDelay, 2 * baseDelay}
	if len(f.delays) != len(want) || f.delays[0] != want[0] || f.delays[1] != want[1] {
		t.Errorf("backoff delays %v, want %v", f.delays, want)
	}
}

func TestClientRetriesTransportError(t *testing.T) {
	// A server that is immediately closed yields connection-refused on
	// every attempt: the client must exhaust its budget, then report.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close()
	f := &fakeSleep{}
	c := &Client{Base: srv.URL, Retry: testPolicy(f)}
	_, err := c.UniverseStats(context.Background(), specPQ())
	if err == nil {
		t.Fatal("expected transport error")
	}
	if len(f.delays) != 3 {
		t.Errorf("slept %d times, want 3 (4 attempts)", len(f.delays))
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	srv, hits := flakyServer(t, 100, http.StatusBadRequest)
	f := &fakeSleep{}
	c := &Client{Base: srv.URL, Retry: testPolicy(f)}
	_, err := c.UniverseStats(context.Background(), specPQ())
	var serr *Error
	if !errors.As(err, &serr) || serr.Status != http.StatusBadRequest {
		t.Fatalf("want 400 *Error, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hit %d times, want 1 — 4xx is a verdict, not a transient", got)
	}
	if len(f.delays) != 0 {
		t.Errorf("client slept %v before a 4xx", f.delays)
	}
}

func TestClientRetryRespectsContext(t *testing.T) {
	srv, hits := flakyServer(t, 100, http.StatusServiceUnavailable)
	// The sleep hook fails on the second pause, simulating a context
	// deadline landing mid-backoff; the client must stop immediately
	// and surface the last real error, not spin out its full budget.
	f := &fakeSleep{fail: func(n int) error {
		if n >= 2 {
			return context.DeadlineExceeded
		}
		return nil
	}}
	c := &Client{Base: srv.URL, Retry: testPolicy(f)}
	_, err := c.UniverseStats(context.Background(), specPQ())
	var serr *Error
	if !errors.As(err, &serr) || serr.Status != http.StatusServiceUnavailable {
		t.Fatalf("want the last 503 back, got %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server hit %d times, want 2 (budget cut short by context)", got)
	}
}

func TestClientNilPolicySingleShot(t *testing.T) {
	srv, hits := flakyServer(t, 100, http.StatusServiceUnavailable)
	c := &Client{Base: srv.URL}
	if _, err := c.UniverseStats(context.Background(), specPQ()); err == nil {
		t.Fatal("expected 503 error")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hit %d times, want 1 (nil policy means no retries)", got)
	}
}

func TestRetryDelayCapAndJitter(t *testing.T) {
	p := &RetryPolicy{jitter: func() float64 { return 1 }}
	// Full jitter adds 50%. Attempt 0 sleeps baseDelay; attempt 5 would
	// sleep 32·baseDelay, which exceeds maxDelay, so it is capped first.
	if got, want := p.delay(0), baseDelay*3/2; got != want {
		t.Errorf("delay(0) = %v, want %v", got, want)
	}
	if baseDelay<<5 <= maxDelay {
		t.Fatalf("attempt 5 (%v) must exceed the cap %v", baseDelay<<5, maxDelay)
	}
	if got, want := p.delay(5), maxDelay*3/2; got != want {
		t.Errorf("delay(5) = %v, want %v (capped before jitter)", got, want)
	}
}
