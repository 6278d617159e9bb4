// Package perf is the simulator's wall-clock observability plane: a
// phase profiler and throughput accountant measuring how real time is
// spent producing simulated time. It is the strict complement of
// internal/telemetry — telemetry samples the simulated clock and is part
// of a run's result identity, perf samples the host's monotonic clock
// and is pure provenance (excluded from fingerprints, digests, and
// committed baselines, and different on every machine and every rerun).
//
// The profiler follows the same passivity bar as telemetry and causal
// tracing: every hook is a nil-receiver no-op, enabling it schedules no
// events and mutates no simulated state, so a profiled run is
// bit-identical to an unprofiled one (pinned by TestPerfIsPassive).
//
// Attribution model: the profiler keeps one current phase; subsystems
// switch it at their choke points (mesh send/delivery, protocol message
// dispatch, directory lookups, memory/bus modeling, the telemetry
// sampling tick, causal span recording) and restore the previous phase
// on exit. Wall time no subsystem claims — the event heap, coroutine
// switches, application compute — accrues to the engine's default phase
// (dispatch for regular events, background for watchdog/observer
// events).
package perf

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Phase names one wall-clock cost center of the simulation loop.
type Phase uint8

// The phase taxonomy. PhaseDispatch is the engine's default charge —
// event-heap maintenance, coroutine handoff, and application compute
// not claimed by a deeper subsystem; PhaseBackground is the same
// default for background (observer) events.
const (
	PhaseDispatch Phase = iota
	PhaseMesh
	PhaseProtocol
	PhaseDirectory
	PhaseMemBus
	PhaseTelemetry
	PhaseCausal
	PhaseBackground
	NumPhases
)

var phaseNames = [NumPhases]string{
	"dispatch", "mesh", "protocol", "directory",
	"membus", "telemetry", "causal", "background",
}

// String returns the phase's stable name (used as JSON keys in
// snapshots, so renames are schema changes).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Profiler accumulates monotonic wall-clock time per phase. All methods
// are safe on a nil receiver (free no-ops), so instrumented subsystems
// call them unconditionally. A Profiler is single-threaded, like the
// engine loop it observes.
type Profiler struct {
	base    time.Time
	lastNS  int64
	cur     Phase
	phaseNS [NumPhases]int64

	startAllocs uint64
	startBytes  uint64
	startPause  uint64
	startGC     uint32

	snap  Snapshot
	ended bool
}

// New returns an idle profiler. Call Begin immediately before the run
// loop and End immediately after.
func New() *Profiler { return &Profiler{} }

// Begin starts the clock and records the allocator baseline.
func (p *Profiler) Begin() {
	if p == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.startAllocs = ms.Mallocs
	p.startBytes = ms.TotalAlloc
	p.startPause = ms.PauseTotalNs
	p.startGC = ms.NumGC
	p.base = time.Now()
	p.lastNS = 0
	p.cur = PhaseDispatch
}

// Enter charges the elapsed interval to the current phase, switches to
// ph, and returns the previous phase so the caller can restore it with
// Exit. Nil-safe and allocation-free.
func (p *Profiler) Enter(ph Phase) Phase {
	if p == nil {
		return PhaseDispatch
	}
	now := int64(time.Since(p.base))
	p.phaseNS[p.cur] += now - p.lastNS
	p.lastNS = now
	prev := p.cur
	p.cur = ph
	return prev
}

// Exit restores the phase a matching Enter returned.
func (p *Profiler) Exit(prev Phase) {
	if p == nil {
		return
	}
	now := int64(time.Since(p.base))
	p.phaseNS[p.cur] += now - p.lastNS
	p.lastNS = now
	p.cur = prev
}

// End stops the clock, folds the final interval, and fixes the snapshot.
// cycles and events are the run's final simulated cycle and executed
// event count (the throughput denominators come from them).
func (p *Profiler) End(cycles, events uint64) {
	if p == nil || p.ended {
		return
	}
	p.Enter(PhaseDispatch) // flush the open interval
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	s := Snapshot{
		WallNS:     p.lastNS,
		Cycles:     cycles,
		Events:     events,
		Allocs:     ms.Mallocs - p.startAllocs,
		AllocBytes: ms.TotalAlloc - p.startBytes,
		GCPauseNS:  ms.PauseTotalNs - p.startPause,
		GCCycles:   uint64(ms.NumGC - p.startGC),
		Phases:     make(map[string]int64, NumPhases),
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if p.phaseNS[ph] != 0 {
			s.Phases[ph.String()] = p.phaseNS[ph]
		}
	}
	if s.WallNS > 0 {
		sec := float64(s.WallNS) / 1e9
		s.CyclesPerSec = float64(cycles) / sec
		s.EventsPerSec = float64(events) / sec
	}
	p.snap = s
	p.ended = true
}

// Snapshot returns the profile fixed by End (the zero Snapshot before
// End, or on a nil profiler).
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	return p.snap
}

// Snapshot is one run's (or one aggregation's) wall-clock profile. It is
// provenance, never identity: results embed it under `json:"-"`, reports
// under omitempty fields that Stable() strips, and it never feeds a
// fingerprint or digest.
type Snapshot struct {
	WallNS int64  `json:"wall_ns"`
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`

	CyclesPerSec float64 `json:"cycles_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Phases maps phase name -> accumulated nanoseconds (zero phases
	// omitted). Keys are the Phase.String() names.
	Phases map[string]int64 `json:"phase_ns,omitempty"`

	// Allocator deltas over the run: heap objects, heap bytes, total GC
	// stop-the-world pause time, and completed GC cycles.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCPauseNS  uint64 `json:"gc_pause_ns"`
	GCCycles   uint64 `json:"gc_cycles"`
}

// Zero reports whether the snapshot carries no measurement.
func (s Snapshot) Zero() bool { return s.WallNS == 0 && s.Cycles == 0 && s.Events == 0 }

// Add folds another run's profile into s (used by the runner's Meta to
// aggregate over a sweep's fresh executions). Throughput is recomputed
// from the summed totals.
func (s *Snapshot) Add(o Snapshot) {
	s.WallNS += o.WallNS
	s.Cycles += o.Cycles
	s.Events += o.Events
	s.Allocs += o.Allocs
	s.AllocBytes += o.AllocBytes
	s.GCPauseNS += o.GCPauseNS
	s.GCCycles += o.GCCycles
	if len(o.Phases) > 0 && s.Phases == nil {
		s.Phases = make(map[string]int64, len(o.Phases))
	}
	for k, v := range o.Phases {
		s.Phases[k] += v
	}
	if s.WallNS > 0 {
		sec := float64(s.WallNS) / 1e9
		s.CyclesPerSec = float64(s.Cycles) / sec
		s.EventsPerSec = float64(s.Events) / sec
	}
}

// PhaseRow is one line of the rendered phase table.
type PhaseRow struct {
	Name string
	NS   int64
	Pct  float64
}

// PhaseTable returns the phase breakdown in taxonomy order, percentages
// of the measured wall time, zero phases omitted.
func (s Snapshot) PhaseTable() []PhaseRow {
	rows := make([]PhaseRow, 0, len(s.Phases))
	for ph := Phase(0); ph < NumPhases; ph++ {
		ns, ok := s.Phases[ph.String()]
		if !ok {
			continue
		}
		r := PhaseRow{Name: ph.String(), NS: ns}
		if s.WallNS > 0 {
			r.Pct = 100 * float64(ns) / float64(s.WallNS)
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].NS > rows[j].NS })
	return rows
}

// Table renders the profile as an aligned text block: throughput
// headline, phase breakdown, allocator deltas.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall time            %s\n", time.Duration(s.WallNS))
	fmt.Fprintf(&b, "simulated cycles     %d (%.2f Mcycles/s)\n", s.Cycles, s.CyclesPerSec/1e6)
	fmt.Fprintf(&b, "engine events        %d (%.2f Mevents/s)\n", s.Events, s.EventsPerSec/1e6)
	for _, r := range s.PhaseTable() {
		fmt.Fprintf(&b, "  phase %-12s %14s  %5.1f%%\n", r.Name, time.Duration(r.NS).String(), r.Pct)
	}
	fmt.Fprintf(&b, "heap allocations     %d objects, %d bytes\n", s.Allocs, s.AllocBytes)
	fmt.Fprintf(&b, "gc                   %d cycle(s), %s total pause\n", s.GCCycles, time.Duration(s.GCPauseNS))
	return b.String()
}
