package universe

import "hpl/internal/obs"

// Package-level metric handles, registered once into obs.Default so
// every enumeration in the process — traced or not — feeds the same
// families cmd/hpld serves on /metrics. Per-build phase breakdowns
// additionally land in the *obs.Trace attached via WithTrace.
var (
	phaseExpand       = buildPhase("expand")
	phaseCanonicalize = buildPhase("canonicalize")
	phasePrefixIndex  = buildPhase("prefix_index")
	phasePartition    = buildPhase("partition")
	phaseTransitions  = buildPhase("transitions")
	phaseSnapEncode   = buildPhase("snapshot_encode")
	phaseSnapDecode   = buildPhase("snapshot_decode")

	engineBuilds = obs.Default.Counter("hpl_engine_builds_total",
		"Completed universe enumerations, including extensions.")
	engineMembers = obs.Default.Counter("hpl_engine_members_total",
		"Members held by completed enumerations (quotient members for symmetric builds).")
	symChecksTotal = obs.Default.Counter("hpl_engine_sym_stabilizer_checks_total",
		"Orbit-canonicity checks on candidate children under WithSymmetry.")
	symRejectsTotal = obs.Default.Counter("hpl_engine_sym_stabilizer_rejects_total",
		"Candidate children rejected as non-canonical under WithSymmetry.")
)

func buildPhase(phase string) *obs.Histogram {
	return obs.Default.Histogram("hpl_build_phase_seconds",
		"Wall time of universe build phases.", obs.TimeBuckets, "phase", phase)
}
