// Package sim provides a deterministic discrete-event simulation engine
// with coroutine-style processor contexts and FIFO occupancy resources.
//
// The engine and all event handlers run on the caller's goroutine;
// processor contexts are iter.Pull coroutines that execute strictly one
// at a time, switching control back to the engine whenever they block on
// simulated time. Events with equal timestamps fire in scheduling order
// (a monotonically increasing sequence number breaks ties), so a given
// program produces an identical cycle-accurate schedule on every run.
package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"lazyrc/internal/perf"
)

// Time is simulated time in processor cycles.
type Time = uint64

// Chooser resolves scheduling nondeterminism at an enumerated choice
// point with n >= 2 alternatives, returning an index in [0, n). The
// engine consults it whenever several events are enabled at the same
// simulated instant, instead of committing to scheduling (heap) order;
// the mesh consults it to pick per-message delivery delays. A model
// checker implements Chooser to explore the space of legal schedules and
// to replay a recorded one; with no chooser attached the engine's
// deterministic seq-order tie-break applies unchanged.
type Chooser interface {
	Choose(n int) int
}

type event struct {
	at  Time
	seq uint64
	fn  func()
	bg  bool // background events do not keep the simulation alive
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any       { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event     { return h[0] }
func (h *eventHeap) popMin() event  { return heap.Pop(h).(event) }
func (h *eventHeap) pushEv(e event) { heap.Push(h, e) }
func (h eventHeap) emptied() bool   { return len(h) == 0 }

// Engine is a deterministic discrete-event simulator.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	contexts []*Context
	parked   map[*Context]string // parked context -> wait reason

	nEvents uint64 // total events executed, for diagnostics
	nbg     int    // background events currently in the queue
	stopped bool   // set by Stop; Run returns early

	chooser Chooser // nil: deterministic seq-order tie-break
	tied    []event // scratch for same-instant choice enumeration

	tracer TaskTracer // nil: no causal-context propagation

	prof *perf.Profiler // nil: no wall-clock phase accounting
}

// TaskTracer threads a causal context (a transaction id) through event
// chains. When one is attached, every callback scheduled via At/After/
// Background captures the context current at scheduling time and runs
// with it restored — so a home-side continuation, and any message it
// sends, inherit the transaction identity of the request that scheduled
// it without the protocol code threading ids by hand. The tracer is
// purely observational: it must not schedule events or touch simulated
// state, so attaching one leaves the cycle-accurate schedule unchanged.
type TaskTracer interface {
	// Capture returns the context current at scheduling time.
	Capture() uint64
	// Restore installs ctx and returns the previously current context.
	Restore(ctx uint64) uint64
}

// SetTaskTracer attaches (or, with nil, detaches) a causal-context
// tracer. Attach before Run.
func (e *Engine) SetTaskTracer(t TaskTracer) { e.tracer = t }

// SetProfiler attaches (or, with nil, detaches) a wall-clock phase
// profiler. The run loop charges each event's execution to the dispatch
// phase (background phase for background events); instrumented
// subsystems narrow the attribution from inside the event. Purely
// observational — the simulated schedule is unchanged.
func (e *Engine) SetProfiler(p *perf.Profiler) { e.prof = p }

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine {
	return &Engine{
		parked: map[*Context]string{},
		events: make(eventHeap, 0, 1024),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nEvents }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.events.pushEv(event{at: t, seq: e.seq, fn: e.wrap(fn)})
}

// wrap closes fn over the causal context current at scheduling time so
// the callback (and everything it schedules in turn) runs under it. The
// previous context is restored afterwards, which keeps nesting correct
// when an event hands control to a coroutine that itself runs nested
// events before yielding back.
func (e *Engine) wrap(fn func()) func() {
	if e.tracer == nil {
		return fn
	}
	ctx := e.tracer.Capture()
	return func() {
		prev := e.tracer.Restore(ctx)
		fn()
		e.tracer.Restore(prev)
	}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) { e.At(e.now+d, fn) }

// Background schedules fn at absolute time t as a background event.
// Background events — watchdog probes, invariant-checker epochs — do not
// keep the simulation alive: Run returns (and discards them) once only
// background events remain, so a periodic observer may reschedule itself
// unconditionally without preventing termination.
func (e *Engine) Background(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling background event at %d before now %d", t, e.now))
	}
	e.seq++
	e.nbg++
	e.events.pushEv(event{at: t, seq: e.seq, fn: e.wrap(fn), bg: true})
}

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.events) }

// SetChooser attaches (or, with nil, detaches) a scheduling chooser.
// With a chooser attached, whenever two or more events are enabled at
// the same simulated instant the engine enumerates them (in scheduling
// order) and lets the chooser pick which fires next, rather than
// committing to seq order. Attach before Run; the schedule is a pure
// function of the chooser's answers, so replaying the same answers
// reproduces the run exactly.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// popNext removes and returns the next event to execute. With no chooser
// (or a single enabled event) this is the deterministic heap minimum;
// with a chooser and several events tied at the minimum timestamp, the
// tied set is enumerated as a choice point.
func (e *Engine) popNext() event {
	ev := e.events.popMin()
	if e.chooser == nil || e.events.emptied() || e.events.peek().at != ev.at {
		return ev
	}
	e.tied = append(e.tied[:0], ev)
	for !e.events.emptied() && e.events.peek().at == ev.at {
		e.tied = append(e.tied, e.events.popMin())
	}
	pick := e.chooser.Choose(len(e.tied))
	if pick < 0 || pick >= len(e.tied) {
		panic(fmt.Sprintf("sim: chooser picked %d of %d alternatives", pick, len(e.tied)))
	}
	chosen := e.tied[pick]
	for i, t := range e.tied {
		if i != pick {
			e.events.pushEv(t) // seq is preserved: unchosen events keep their order
		}
	}
	return chosen
}

// Stop makes Run return before the next event, without treating still-
// parked contexts as a deadlock. A watchdog's stall handler calls it to
// abort a wedged simulation after dumping its report.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue drains and every context has
// finished. If the queue drains while contexts are still parked, the
// simulation is deadlocked and Run panics with a per-context report.
// However Run ends — early after Stop, or by a panic from the deadlock
// check, an event handler or a context body — it releases every
// unfinished context, so an abandoned run holds no coroutines.
func (e *Engine) Run() {
	defer e.release()
	for !e.events.emptied() && e.nbg < len(e.events) {
		if e.stopped {
			return
		}
		ev := e.popNext()
		if ev.bg {
			e.nbg--
		}
		e.now = ev.at
		e.nEvents++
		e.exec(ev)
	}
	if e.stopped {
		return
	}
	if len(e.parked) > 0 {
		panic(e.deadlockReport())
	}
	for _, c := range e.contexts {
		if !c.done {
			panic(fmt.Sprintf("sim: context %q neither finished nor parked at end of run", c.name))
		}
	}
}

// RunUntil executes events with timestamps <= t, then stops.
// It does not treat remaining parked contexts as a deadlock, and keeps
// them alive for a later Run or RunUntil.
func (e *Engine) RunUntil(t Time) {
	for !e.events.emptied() && e.events.peek().at <= t {
		if e.stopped {
			return
		}
		ev := e.popNext()
		if ev.bg {
			e.nbg--
		}
		e.now = ev.at
		e.nEvents++
		e.exec(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// release stops the coroutine of every unfinished context, unwinding its
// suspended body (deferred calls run; the code after its blocking call
// does not). The contexts keep their parked state for diagnostics.
func (e *Engine) release() {
	for _, c := range e.contexts {
		if !c.done {
			c.stop()
		}
	}
}

// exec runs one event, charging its wall time to the profiler's default
// phase for its kind when a profiler is attached.
func (e *Engine) exec(ev event) {
	if e.prof == nil {
		ev.fn()
		return
	}
	ph := perf.PhaseDispatch
	if ev.bg {
		ph = perf.PhaseBackground
	}
	prev := e.prof.Enter(ph)
	ev.fn()
	e.prof.Exit(prev)
}

func (e *Engine) deadlockReport() string {
	type row struct{ name, why string }
	rows := make([]row, 0, len(e.parked))
	for c, why := range e.parked {
		rows = append(rows, row{c.name, why})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	s := fmt.Sprintf("sim: deadlock at time %d: %d context(s) parked with no pending events:", e.now, len(rows))
	for _, r := range rows {
		s += fmt.Sprintf("\n  %s: waiting for %s", r.name, r.why)
	}
	return s
}
