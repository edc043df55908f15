package service

import (
	"strconv"

	"hpl/internal/obs"
)

// Registry- and server-level metrics, registered once into obs.Default
// (cmd/hpld serves the registry on GET /metrics). The per-request
// handles are fetched through small helpers because their label values
// (endpoint, status code, materialization source) are dynamic; the
// label set is bounded — endpoints are normalized to the known routes —
// so the registry cannot grow without bound.
var (
	regLookupHits = obs.Default.Counter("hpld_registry_lookups_total",
		"Universe cache lookups by result.", "result", "hit")
	regLookupMisses = obs.Default.Counter("hpld_registry_lookups_total",
		"Universe cache lookups by result.", "result", "miss")
	regJoins = obs.Default.Counter("hpld_registry_singleflight_joins_total",
		"Cache misses that joined an already-running build of the same digest.")
	regEvictions = obs.Default.Counter("hpld_registry_evictions_total",
		"Universes evicted from the cache under the byte budget.")
	regBytesGauge = obs.Default.Gauge("hpld_registry_resident_bytes",
		"Estimated resident bytes of all cached universes.")
	regUniversesGauge = obs.Default.Gauge("hpld_registry_universes",
		"Cached universes currently resident.")
	httpInflight = obs.Default.Gauge("hpld_http_inflight",
		"HTTP requests currently being served.")
)

// materializations counts singleflight materializations by how the
// universe was (or failed to be) produced.
func materializations(source, outcome string) *obs.Counter {
	return obs.Default.Counter("hpld_registry_materializations_total",
		"Universe materializations by source (build, snapshot, extend) and outcome.",
		"source", source, "outcome", outcome)
}

// materializeSeconds times successful materializations by source — the
// server-side cold-start cost.
func materializeSeconds(source string) *obs.Histogram {
	return obs.Default.Histogram("hpld_registry_materialize_seconds",
		"Time to make a universe resident, by source.",
		obs.TimeBuckets, "source", source)
}

// httpRequests counts finished requests by normalized endpoint and
// status code.
func httpRequests(endpoint string, code int) *obs.Counter {
	return obs.Default.Counter("hpld_http_requests_total",
		"HTTP requests served, by endpoint and status code.",
		"endpoint", endpoint, "code", strconv.Itoa(code))
}

// httpLatency is the end-to-end request latency per endpoint, the
// server-side view of the latency bench/'s serve workloads measure from
// the client.
func httpLatency(endpoint string) *obs.Histogram {
	return obs.Default.Histogram("hpld_http_request_seconds",
		"End-to-end HTTP request latency, by endpoint.",
		obs.TimeBuckets, "endpoint", endpoint)
}

// batchSizes is the formulas-per-request distribution on the check
// endpoints.
func batchSizes(endpoint string) *obs.Histogram {
	return obs.Default.Histogram("hpld_batch_size",
		"Formulas per request on the check endpoints.",
		obs.SizeBuckets, "endpoint", endpoint)
}
