package knowledge

import "hpl/internal/obs"

// Evaluator metrics, registered once into obs.Default. Truth-vector
// construction is memoized per hash-consed subformula, so the hit/miss
// ratio is the direct measure of how much sharing the formula pool
// gets; node timings break the misses down by formula kind.
var (
	memoHits = obs.Default.Counter("hpl_eval_memo_hits_total",
		"Truth-vector requests answered from the hash-consed memo.")
	memoMisses = obs.Default.Counter("hpl_eval_memo_misses_total",
		"Truth-vector requests that computed a new vector.")
	memoEvictions = obs.Default.Counter("hpl_eval_memo_evictions_total",
		"Truth vectors evicted from a memo trimmed to its budget.")
	// evalKind is indexed by internKind. Timings are inclusive of child
	// subformula evaluation: a K-operator's time contains its body's
	// (unless the body was memoized), so sums across kinds overlap.
	evalKind [inOnce + 1]*obs.Histogram
)

func init() {
	names := [...]string{
		inConst:  "const",
		inAtom:   "atom",
		inNot:    "not",
		inAnd:    "and",
		inOr:     "or",
		inKnows:  "knows",
		inCommon: "common",
		inEX:     "ex",
		inEU:     "eu",
		inAU:     "au",
		inEY:     "ey",
		inOnce:   "once",
	}
	for k, name := range names {
		evalKind[k] = obs.Default.Histogram("hpl_eval_node_seconds",
			"Truth-vector construction time per formula kind, inclusive of children.",
			obs.TimeBuckets, "kind", name)
	}
}
