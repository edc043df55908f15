package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzCheckHandler sends mutated bodies to the universe-touching
// endpoints through the server's own ServeHTTP, as hpld receives them:
// whatever the body, the answer is a 2xx or a structured 4xx, or the
// 503 of the request deadline — never a 500 or a panic — and it comes
// back within ten seconds, well past the 2 s deadline. The registry's
// member cap keeps every build small, and the corpus is seeded with a
// valid body for each endpoint, a symmetry quotient and a fault spec.
func FuzzCheckHandler(f *testing.F) {
	endpoints := []string{"/v1/check", "/v1/check-temporal", "/v1/universe-stats"}
	f.Add(uint8(0), []byte(`{"universe":{"procs":["p","q"],"maxSends":1,"maxEvents":4},"formulas":["K{q} \"sent(p,m)\" -> \"sent(p,m)\"","C \"anySent(m)\""]}`))
	f.Add(uint8(1), []byte(`{"universe":{"procs":["p","q"],"maxSends":1,"maxEvents":4},"formulas":["AG (K{q} \"sent(p,m)\" -> Once \"received(q,m)\")","A[!K{q} \"sent(p,m)\" U \"received(q,m)\"]"]}`))
	f.Add(uint8(2), []byte(`{"universe":{"procs":["p","q","r"],"maxSends":1,"maxEvents":4}}`))
	f.Add(uint8(0), []byte(`{"universe":{"procs":["p","q","r"],"maxSends":1,"maxEvents":4,"symmetry":"full"},"formulas":["\"anyReceived(m)\" -> \"anySent(m)\"","K{q} \"sent(p,m)\""]}`))
	f.Add(uint8(1), []byte(`{"universe":{"procs":["p","q"],"maxSends":1,"maxEvents":4,"faults":"crash,drop:1,dup:1"},"formulas":["AG (\"anyCrashed\" -> AG \"anyCrashed\")"]}`))

	srv := NewServer(NewRegistry(Config{MaxMembers: 3000, MaxBytes: 64 << 20}), WithRequestTimeout(2*time.Second))
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := endpoints[int(endpoint)%len(endpoints)]
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("%s answered %d after %v", path, rec.Code, d)
		}
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
		}
	})
}
