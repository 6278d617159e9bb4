package runner

import (
	"context"
	"errors"
	"fmt"

	"lazyrc/internal/apps"
	"lazyrc/internal/check"
	"lazyrc/internal/machine"
	"lazyrc/internal/perf"
	"lazyrc/internal/sim"
	"lazyrc/internal/stats"
)

// Result is one job's measurements. It is the unit stored in the
// content-addressed cache, so every field that downstream consumers read
// must round-trip exactly through JSON: integers are exact by
// construction, and Go's float64 encoding is shortest-form and
// re-parses bit-identically, so a cache-served result renders the same
// report bytes as a freshly simulated one.
type Result struct {
	Fingerprint string `json:"fp"`
	App         string `json:"app"`
	Scale       string `json:"scale"`
	Proto       string `json:"proto"`

	ExecCycles  uint64 `json:"exec_cycles"`
	CPUCycles   uint64 `json:"cpu_cycles"`
	ReadCycles  uint64 `json:"read_cycles"`
	WriteCycles uint64 `json:"write_cycles"`
	SyncCycles  uint64 `json:"sync_cycles"`

	MissRate   float64                     `json:"miss_rate"`
	MissShares [stats.NumMissKinds]float64 `json:"miss_shares"`

	Msgs  uint64 `json:"network_msgs"`
	Bytes uint64 `json:"network_bytes"`

	// MetricsDigest is the SHA-256 of the run's canonical telemetry
	// export (fixed sampling interval; see metricsInterval). Telemetry is
	// cycle-domain and engine-driven, so the digest is identical across
	// worker counts and machines — the regression gate compares it to
	// catch shape drift that end-of-run totals would miss.
	MetricsDigest string `json:"metrics_digest,omitempty"`

	// Spans counts the causal spans the run's coherence and
	// synchronization activity produced; SpanDigest is their stream
	// fingerprint (causal.Tracer.Digest, "<count>-<hash>"). Spans are
	// recorded in digest-only mode — the runner wants the determinism
	// fingerprint, not the store — and, like the metrics digest, the
	// value is identical across worker counts and machines, so the
	// regression gate compares it to catch protocol-behaviour drift
	// that leaves end-of-run totals untouched.
	Spans      uint64 `json:"spans,omitempty"`
	SpanDigest string `json:"span_digest,omitempty"`

	// MemDigest is the SHA-256 of the machine's final shared-memory image
	// and Completed reports whether every processor finished. Together
	// they are the end-state half of the chaos oracle: a faulted run must
	// reproduce the fault-free same-seed run's digest and completion
	// exactly, or the reliable transport leaked a loss into application
	// state.
	MemDigest string `json:"mem_digest,omitempty"`
	Completed bool   `json:"completed"`

	// CheckErr records a protocol-invariant violation (epoch or
	// quiescence audit) or a liveness-watchdog trip. Guards run only for
	// faulted jobs (Cfg.FaultPlan != ""); fault-free jobs leave it empty.
	CheckErr string `json:"check_err,omitempty"`

	// Transport counters, nonzero only under fault injection: messages
	// the injector faulted, losses the transport retransmitted around,
	// and duplicate or stale arrivals the receivers suppressed.
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	Retransmits    uint64 `json:"retransmits,omitempty"`
	DupSuppressed  uint64 `json:"dup_suppressed,omitempty"`

	// VerifyErr records a deterministic numerical-verification failure.
	// Such results are still cacheable: the same job always fails the
	// same way.
	VerifyErr string `json:"verify_err,omitempty"`

	// Failure records an execution failure — a panic inside the
	// simulation or an error constructing the machine or application.
	// Failed results are never cached, so a rerun retries the job.
	Failure string `json:"-"`

	// Cached marks a result served from the store rather than simulated.
	// Provenance only; never serialized, never rendered.
	Cached bool `json:"-"`

	// Canceled marks a submission abandoned by context cancellation —
	// either before it started or stopped mid-simulation. Canceled
	// results are never memoized or stored; a later submission of the
	// same job re-executes it. Provenance only, like Cached.
	Canceled bool `json:"-"`

	// Perf is the execution's wall-clock phase profile. Provenance only,
	// like Cached: it varies by host and load, so it is never serialized
	// into the store (cache-served results carry none), never part of
	// the fingerprint, and never rendered into stable reports.
	Perf *perf.Snapshot `json:"-"`
}

// Failed reports whether the job crashed (as opposed to completing,
// possibly with a verification error).
func (r *Result) Failed() bool { return r.Failure != "" }

// Err folds both failure modes into one error: nil for a clean run, the
// failure for a crashed job, the verification error otherwise.
func (r *Result) Err() error {
	switch {
	case r.Failure != "":
		return errors.New(r.Failure)
	case r.VerifyErr != "":
		return errors.New(r.VerifyErr)
	}
	return nil
}

// metricsInterval is the fixed telemetry sampling interval for runner
// jobs. Part of the result contract: changing it changes every metrics
// digest, so bump fingerprintVersion with it.
const metricsInterval = 4096

// Guard cadences for faulted jobs: invariant audits every checkEpoch
// cycles, and a liveness watchdog that stops a run making no progress for
// watchdogQuiet cycles (a lost message the transport failed to recover
// would otherwise hang the sweep).
const (
	checkEpoch    = 10000
	watchdogQuiet = 200000
)

// cancelPollEvery is the simulated-cycle cadence at which a hooked run
// checks its submission context; DefaultHeartbeatEvery is the default
// cadence of progress heartbeats. Both fire as background engine events
// (observers that mutate nothing), so a hooked run is bit-identical to
// an unhooked one — pinned by TestHookedExecIsByteIdentical.
const (
	cancelPollEvery       = 4096
	DefaultHeartbeatEvery = 1 << 18
)

// hooks carries the runner's per-execution instrumentation into the
// simulation: a cancellation context polled on the simulated clock and a
// heartbeat callback reporting the current cycle. The zero value (used
// by plain Exec) installs nothing.
type hooks struct {
	ctx   context.Context
	beat  func(cycle uint64)
	every uint64 // heartbeat cadence in cycles; 0 = DefaultHeartbeatEvery
}

// active reports whether the hooks need the in-run poller at all.
func (h hooks) active() bool {
	return (h.ctx != nil && h.ctx.Done() != nil) || h.beat != nil
}

// canceled reports whether the submission context is dead.
func (h hooks) canceled() bool {
	return h.ctx != nil && h.ctx.Err() != nil
}

// install attaches the poll/heartbeat background prober to a built
// machine. It reschedules itself every cancelPollEvery cycles; when the
// context dies it stops the engine instead of rescheduling, and every
// `every` cycles it reports the current cycle through beat.
func (h hooks) install(m *machine.Machine) {
	every := h.every
	if every == 0 {
		every = DefaultHeartbeatEvery
	}
	var nextBeat uint64 = every
	var tick func()
	tick = func() {
		if h.canceled() {
			m.Eng.Stop()
			return
		}
		now := m.Eng.Now()
		if h.beat != nil && now >= nextBeat {
			h.beat(now)
			for nextBeat <= now {
				nextBeat += every
			}
		}
		m.Eng.Background(now+cancelPollEvery, tick)
	}
	m.Eng.Background(m.Eng.Now()+cancelPollEvery, tick)
}

// canceledResult is the record returned for a submission abandoned
// before (or while) executing.
func canceledResult(fp string, j Job, cause error) *Result {
	msg := "canceled"
	if cause != nil {
		msg = "canceled: " + cause.Error()
	}
	return &Result{
		Fingerprint: fp,
		App:         j.App,
		Scale:       j.Scale.String(),
		Proto:       j.Proto,
		Failure:     msg,
		Canceled:    true,
	}
}

// simulate executes one job and fills in its measurements. It is a
// package variable so tests can substitute a crashing body to exercise
// panic capture.
var simulate = func(j Job, res *Result, hk hooks) error {
	app, err := j.newApp()
	if err != nil {
		return err
	}
	var aud *check.Auditor
	var stalled string
	setup := func(m *machine.Machine) {
		// Every runner execution is profiled: perf accounting is passive
		// (pinned by TestPerfIsPassive) and costs two MemStats reads plus
		// nanosecond-scale phase switches, while the snapshot feeds the
		// runner's throughput meta, the live daemon gauges, and
		// paperbench's trend/gate machinery.
		m.EnablePerf()
		// Faulted jobs run guarded: a protocol-invariant auditor audits
		// every epoch and at quiescence, and a watchdog converts a
		// transport-level hang into a recorded failure instead of a stuck
		// worker. Fault-free jobs take the exact unguarded path (both
		// guards are background-only, but keeping them off preserves the
		// pre-chaos runner byte for byte).
		if j.Cfg.FaultPlan != "" {
			aud = check.New(m)
			aud.Start(checkEpoch)
			m.EnableWatchdog(watchdogQuiet, func(r sim.StallReport) {
				if stalled == "" {
					stalled = r.String()
				}
				m.Eng.Stop()
			})
		}
		if hk.active() {
			hk.install(m)
		}
	}
	m, reg, verr := apps.RunTracedWith(j.Cfg, j.Proto, app, metricsInterval, setup)
	if m == nil {
		// No machine means construction failed (unknown protocol, bad
		// config): an execution failure, not a deterministic
		// verification result.
		return verr
	}
	if verr != nil {
		res.VerifyErr = verr.Error()
	}
	cpu, rd, wr, sy := m.Stats.Aggregate()
	res.ExecCycles = m.Stats.ExecutionTime()
	res.CPUCycles, res.ReadCycles, res.WriteCycles, res.SyncCycles = cpu, rd, wr, sy
	res.MissRate = m.Stats.MissRate()
	res.MissShares = m.Stats.MissShares()
	res.Msgs, res.Bytes = m.Net.Stats()
	res.MetricsDigest = reg.Digest()
	res.Spans = m.Causal.Count()
	res.SpanDigest = m.Causal.Digest()
	res.MemDigest = m.MemDigest()
	res.Completed = m.Completed()
	snap := m.Perf.Snapshot()
	res.Perf = &snap
	reord, delay, dup, drop := m.Net.FaultStats()
	retx, _, outage, brown, _, _ := m.Net.TransportStats()
	res.FaultsInjected = reord + delay + dup + drop + outage + brown
	res.Retransmits = retx
	res.DupSuppressed = m.DuplicatesIgnored()
	if aud != nil {
		aud.Final()
		switch {
		case stalled != "":
			res.CheckErr = "watchdog: " + stalled
		case aud.Err() != nil:
			res.CheckErr = aud.Err().Error()
		default:
			if qerr := m.CheckQuiescent(); qerr != nil {
				res.CheckErr = qerr.Error()
			}
		}
	}
	return nil
}

// Exec runs one job synchronously. A panic anywhere inside the
// simulation is captured into the result's Failure field — one crashing
// run yields a failed-job record, not a dead sweep.
func Exec(j Job) *Result { return execWith(j, hooks{}) }

// ExecTraced re-runs a job with full causal-span retention and returns
// the finished machine, for on-demand trace export (the lrcsimd trace
// endpoint). Tracing is passive — the simulated schedule is bit-identical
// to an untraced run — but retained spans cost memory, so this path is
// separate from the cached result pipeline. A panic is returned as an
// error, not propagated.
func ExecTraced(j Job) (m *machine.Machine, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	app, err := j.newApp()
	if err != nil {
		return nil, err
	}
	m, err = apps.RunWith(j.Cfg, j.Proto, app, func(m *machine.Machine) { m.EnableSpans(true, 0) })
	if m == nil {
		return nil, err
	}
	return m, nil
}

// newApp builds the job's application and validates its configuration,
// the checks every execution path runs before building a machine.
func (j Job) newApp() (apps.App, error) {
	app, err := apps.New(j.App, j.Scale)
	if err != nil {
		return nil, err
	}
	return app, j.Cfg.Validate()
}

// execWith is Exec with the runner's per-execution hooks: a cancellation
// context polled on the simulated clock and a heartbeat callback. A run
// stopped by cancellation is marked Canceled (unless it had already
// completed — a cancel that races a clean finish keeps the result).
func execWith(j Job, hk hooks) *Result {
	res := &Result{
		Fingerprint: j.Fingerprint(),
		App:         j.App,
		Scale:       j.Scale.String(),
		Proto:       j.Proto,
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Failure = fmt.Sprintf("panic: %v", p)
			}
		}()
		if err := simulate(j, res, hk); err != nil {
			res.Failure = err.Error()
		}
	}()
	if hk.canceled() && !res.Completed {
		res.Canceled = true
		res.Failure = "canceled: " + hk.ctx.Err().Error()
		res.VerifyErr, res.CheckErr = "", ""
	}
	return res
}
