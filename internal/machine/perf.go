package machine

import (
	"lazyrc/internal/perf"
)

// EnablePerf attaches a wall-clock phase profiler to the machine. It
// must be called before Run; EnableMetrics and EnableSpans may come
// before or after it. Profiling is
// strictly passive: every hook reads the host's monotonic clock and
// touches no simulated state, so an instrumented run is bit-identical —
// cycles, digests, stats — to an uninstrumented one (pinned by
// TestPerfIsPassive).
//
// Wired here:
//
//   - the engine run loop, which charges each event to the dispatch
//     phase (background phase for observer events) — the catch-all that
//     also absorbs coroutine handoff and application compute;
//   - the mesh, narrowing routing/transport/delivery work to the mesh
//     phase;
//   - the protocol Env, narrowing message handling to the protocol
//     phase, cache-fill/commit paths to the memory/bus phase, and
//     home-side directory service occupancy to the directory phase;
//   - every node's directory table (entry lookups);
//   - the causal tracer's span bookkeeping, when one is attached
//     (EnableSpans wires a later tracer to this profiler).
//
// Machine.Run brackets the whole execution with Begin/End; the fixed
// profile is available from m.Perf.Snapshot() afterwards.
func (m *Machine) EnablePerf() *perf.Profiler {
	p := perf.New()
	m.Perf = p
	m.Eng.SetProfiler(p)
	m.Net.SetProfiler(p)
	m.Env.Prof = p
	for _, n := range m.Nodes {
		n.Dir.SetProfiler(p)
	}
	m.Causal.SetProfiler(p)
	return p
}
