package service

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"time"
)

// RetryPolicy bounds the client's resend behaviour. Only failures that
// are safe and useful to retry qualify: transport errors (connection
// refused or reset before a response arrived) and 503s, which the
// server emits for transient conditions — a full registry, a shed
// queue, a request deadline. Every other status is a deterministic
// verdict about the request itself and is returned immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first one included.
	// Zero or negative means a single attempt (no retries).
	MaxAttempts int

	// sleep replaces the real clock in tests. nil sleeps for real,
	// respecting ctx.
	sleep func(ctx context.Context, d time.Duration) error
	// jitter replaces the rand source in tests. nil uses math/rand.
	jitter func() float64
}

// The backoff before retry i (0-based) is baseDelay << i, capped at
// maxDelay, plus up to 50% jitter.
const (
	baseDelay = 100 * time.Millisecond
	maxDelay  = 2 * time.Second
)

// attempts is the total number of tries. A nil policy, which a Client
// with no Retry has, makes a single attempt; callers opt in to retries
// with e.g. &RetryPolicy{MaxAttempts: 3}.
func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) delay(attempt int) time.Duration {
	d := baseDelay << attempt
	if d > maxDelay || d < 0 {
		d = maxDelay
	}
	j := rand.Float64()
	if p.jitter != nil {
		j = p.jitter()
	}
	// Up to +50% jitter so synchronized clients fan out instead of
	// re-stampeding the server on the same beat.
	return d + time.Duration(float64(d)*0.5*j)
}

func (p *RetryPolicy) pause(ctx context.Context, attempt int) error {
	d := p.delay(attempt)
	if p.sleep != nil {
		return p.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryable reports whether err warrants another attempt: transport
// errors always do (the request may never have reached the server),
// and *Error with status 503 does (the server said "try later").
// Context cancellation never does — the caller gave up.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var serr *Error
	if errors.As(err, &serr) {
		return serr.Status == http.StatusServiceUnavailable
	}
	// Anything that is not a structured service error is a transport
	// failure — the server never produced a verdict.
	return true
}
