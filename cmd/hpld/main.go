// Command hpld is the epistemic-checking daemon: a long-lived HTTP/JSON
// server that keeps enumerated universes hot in a memory-accounted LRU
// cache and answers knowledge/temporal formula queries against them.
// Universes are cached by the canonical digest of their spec
// (hpl.UniverseSpec.Digest), concurrent requests for the same uncached
// universe share one build, and queries against a warm universe reuse
// the session's memoized truth vectors, so repeat formulas are
// near-free. The -mem-mib budget covers the universes and the truth
// vectors their sessions hold: over budget, the cache trims the least
// recently used sessions' memos before it evicts any universe, and a
// trimmed vector is recomputed when next needed.
//
// Usage:
//
//	hpld [-addr :8090] [-mem-mib 512] [-max-members 500000] [-par 0] [-drain 10s] [-snapshot-dir DIR]
//	     [-slow-query 1s] [-request-timeout 0] [-access-log] [-pprof-addr 127.0.0.1:6060]
//
// Endpoints (see internal/service for the wire types):
//
//	POST /v1/check           {universe, formulas[]} → per-formula validity over the universe
//	POST /v1/check-temporal  {universe, formulas[]} → verdicts at the initial computation
//	POST /v1/universe-stats  {universe}             → members, bytes, build time, atoms, memo size
//	GET  /v1/health                                 → process vitals + registry snapshot
//	GET  /metrics                                   → Prometheus text exposition
//
// Observability: /metrics exposes the process-wide metric registry —
// engine build phases, evaluator memo traffic, registry cache outcomes,
// and per-endpoint request counters and latency histograms. Check
// requests slower than -slow-query are logged to stderr as JSON lines
// with the spec digest and formula batch (0 disables); -access-log adds
// one JSON line per request (off by default: at tens of thousands of
// requests per second the log becomes the bottleneck being measured).
// -pprof-addr serves net/http/pprof on a separate listener, kept off
// the public address so profiling is never exposed with the API.
//
// Oversized requests degrade gracefully: a spec whose enumeration
// overruns the member cap gets a structured 422, one whose universe
// would not fit the memory budget a 413 — never a 500 or an OOM. With
// -request-timeout set, a request whose universe cannot be built inside
// the deadline gets a structured 503 with code deadline_exceeded (a
// transient verdict — retrying clients back off and resend) and the
// timeout is recorded in the slow-query log.
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// queries for up to -drain.
//
// With -snapshot-dir the cache survives restarts: every built universe
// is persisted as <dir>/<digest>.hplsnap, and after a restart the first
// query for it is answered by a millisecond disk load instead of a
// re-enumeration (source "snapshot" in /v1/universe-stats).
//
// The companion client mode is `mck -server http://host:port '<formula>'`;
// the serve workloads of bench/ drive load against a running daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpl/internal/service"
)

func main() {
	fs := flag.NewFlagSet("hpld", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	memMiB := fs.Int64("mem-mib", 512, "cache memory budget in MiB: universes plus their sessions' memoized truth vectors")
	maxMembers := fs.Int("max-members", 500000, "per-universe enumeration cap (members)")
	par := fs.Int("par", 0, "enumeration workers per build (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window for in-flight queries")
	snapDir := fs.String("snapshot-dir", "", "persist universes here and serve cold misses from disk (empty = off)")
	slowQuery := fs.Duration("slow-query", time.Second, "log check requests slower than this as JSON lines on stderr (0 = off)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline for universe-building requests; expiry answers a structured 503 deadline_exceeded (0 = unbounded)")
	accessLog := fs.Bool("access-log", false, "log every request as a JSON line on stderr")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this side address (empty = off)")
	fs.Parse(os.Args[1:])

	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			log.Fatalf("hpld: snapshot dir: %v", err)
		}
	}
	reg := service.NewRegistry(service.Config{
		MaxBytes:         *memMiB << 20,
		MaxMembers:       *maxMembers,
		BuildParallelism: *par,
		SnapshotDir:      *snapDir,
	})
	opts := []service.ServerOption{
		service.WithLogWriter(os.Stderr),
		service.WithSlowQueryLog(*slowQuery),
	}
	if *accessLog {
		opts = append(opts, service.WithAccessLog())
	}
	if *reqTimeout > 0 {
		opts = append(opts, service.WithRequestTimeout(*reqTimeout))
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: service.NewServer(reg, opts...),
	}

	if *pprofAddr != "" {
		// The pprof import registers on http.DefaultServeMux; serving it
		// on its own listener keeps profiling off the public API address.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("hpld: pprof listener: %v", err)
			}
		}()
		log.Printf("hpld: pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("hpld: serving on %s (budget %d MiB, cap %d members)", *addr, *memMiB, *maxMembers)
	if *snapDir != "" {
		log.Printf("hpld: persisting universes to %s", *snapDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("hpld: %v", err)
	case <-ctx.Done():
	}

	log.Printf("hpld: shutting down, draining in-flight queries (up to %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("hpld: drain incomplete: %v", err)
		srv.Close()
		os.Exit(1)
	}
	st := reg.Stats()
	fmt.Printf("hpld: stopped cleanly (%d universes hot, %d builds, %d hits, %d evictions)\n",
		st.Universes, st.Builds, st.Hits, st.Evictions)
}
