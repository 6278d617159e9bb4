// Package causal stitches the simulator's coherence and synchronization
// activity into causally-linked span trees: every coherence transaction
// (read/write miss → directory lookup → write-notice fan-out → acks →
// completion) and every synchronization episode becomes a tree of
// cycle-stamped spans keyed by a transaction ID that is threaded through
// mesh messages and engine event chains. On top of the span store sit a
// critical-path analyzer (critpath.go) that attributes every stalled CPU
// cycle to a protocol cause, and a Chrome trace-event / Perfetto exporter
// (perfetto.go) so a run can be opened in ui.perfetto.dev.
//
// Like the telemetry registry, tracing is strictly passive: it observes
// cycle stamps the timing model already computed and never schedules
// events or changes an Acquire, so a traced run is bit-identical to an
// untraced one. A nil *Tracer is a valid no-op receiver for every hook —
// the disabled path is a single nil check with zero allocations.
package causal

import (
	"fmt"
	"sort"

	"lazyrc/internal/perf"
)

// Kind classifies one span.
type Kind uint8

const (
	// KindTxn is a coherence-transaction root span at the requesting
	// node: opened at transaction creation (the miss), closed when the
	// transaction is globally performed.
	KindTxn Kind = iota
	// KindSync is a synchronization-episode root span: a lock acquire or
	// release, a barrier wait, a flag set/wait, or a fence.
	KindSync
	// KindStall is a CPU stall episode: the interval a processor context
	// spent parked, classified by the stats bucket it was charged to.
	KindStall
	// KindNet is one message's network flight from send to delivery,
	// including NIC port queueing at both ends.
	KindNet
	// KindDir is a home-side directory access at the protocol processor
	// (queueing recorded separately in Wait).
	KindDir
	// KindMem is a memory-module access at the home.
	KindMem
	// KindBus is the local bus streaming of a cache fill.
	KindBus
	// KindFanout is the home's write-notice or invalidation dispatch
	// occupancy (the per-sharer protocol-processor cost).
	KindFanout
	// KindNotice is remote protocol-processor work triggered by a peer: a
	// write notice, an eager invalidation, an owner forward, or
	// acquire-time invalidation processing.
	KindNotice
	// KindAck is home-side acknowledgement collection work (one
	// protocol-processor occupancy per arriving ack).
	KindAck
	// KindRetx is a reliable-transport retransmission wait: the interval
	// from a (lost) send attempt to the timeout that resent it. Wait
	// carries the attempt number (backoff depth).
	KindRetx

	numKinds
)

var kindNames = [...]string{
	"txn", "sync", "stall", "net", "dir", "mem", "bus", "fanout", "notice", "ack", "retx",
}

// String returns the span-kind mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// StallClass mirrors the stats cycle-breakdown bucket a stall episode was
// charged to.
type StallClass uint8

const (
	// StallRead is a read-miss stall (stats.Proc.ReadStall).
	StallRead StallClass = iota
	// StallWrite is a write-path stall (stats.Proc.WriteStall).
	StallWrite
	// StallSync is a synchronization stall (stats.Proc.SyncStall).
	StallSync

	// NumStallClasses is the number of stall classes.
	NumStallClasses
)

// String returns the class name as used in the stats breakdown.
func (c StallClass) String() string {
	switch c {
	case StallRead:
		return "read"
	case StallWrite:
		return "write"
	case StallSync:
		return "sync"
	}
	return fmt.Sprintf("StallClass(%d)", uint8(c))
}

// Span is one cycle-stamped interval of protocol work. Root spans
// (KindTxn, KindSync) define a transaction ID; every other span carries
// the TID of the transaction whose causal chain it belongs to.
type Span struct {
	// ID is the span's unique id (1-based; 0 is the nil span).
	ID uint64
	// TID is the transaction this span belongs to (the root span's own
	// TID for roots; 0 when work ran outside any transaction context).
	TID uint64
	// Cause, on stall spans, is the TID of the transaction whose
	// completion woke the processor — the causal edge the critical-path
	// analyzer walks backward through.
	Cause uint64
	// Kind classifies the span.
	Kind Kind
	// Class, on stall spans, is the stats bucket the cycles were charged
	// to.
	Class StallClass
	// Node is the node the span's work happened at.
	Node int32
	// Peer is the other endpoint where one exists: the destination of a
	// net span, the notice target of a fanout. -1 when not applicable.
	Peer int32
	// MsgKind is the protocol message kind of a net span (-1 otherwise).
	MsgKind int32
	// Block is the coherence block concerned (0 when not applicable).
	Block uint64
	// Obj is the synchronization object id (sync spans).
	Obj uint64
	// Begin and End are the span's cycle stamps; End >= Begin always.
	Begin, End uint64
	// Wait is the pre-service queueing portion at the span's start: PP or
	// memory occupancy wait for service spans, sender-side NIC port
	// queueing for net spans.
	Wait uint64
	// Wait2 is the post-service queueing portion at the span's end:
	// receiver-side NIC port queueing for net spans (0 otherwise).
	Wait2 uint64
	// Why labels stall spans with the park reason and root spans with the
	// operation ("read", "write", "lock-acquire", ...).
	Why string
}

// Dur returns the span's length in cycles.
func (s *Span) Dur() uint64 { return s.End - s.Begin }

// Tracer is the span store plus the causal-context machinery. It
// implements sim.TaskTracer (Capture/Restore), so attaching it to the
// engine threads the current transaction ID through every scheduled
// event chain — a home-side continuation, and the reply it sends, inherit
// the TID of the request that triggered them without any hand-threading.
//
// All methods are safe on a nil receiver (no-ops), so instrumentation
// sites cost one nil check when tracing is disabled.
type Tracer struct {
	cur     uint64 // current causal context (transaction id)
	nextTID uint64
	nextSID uint64

	retain bool
	limit  int
	spans  []Span
	open   map[uint64]int // open span id -> index in spans (retain mode)

	// Digest-only mode keeps open spans aside instead of retaining the
	// full store.
	pending map[uint64]*Span

	hash    uint64 // running FNV-1a over closed spans, in close order
	closed  uint64 // spans closed (folded into the digest)
	dropped uint64 // spans not recorded because the retention cap was hit

	// rootIDs maps an open transaction's TID to its root span id so
	// EndTxn/EndSync can close by TID. O(open transactions).
	rootIDs map[uint64]uint64

	// prof, when non-nil, charges span bookkeeping wall time to the
	// causal perf phase. Capture/Restore are NOT bracketed: they run on
	// every event and a timestamp read there would cost more than the
	// work measured.
	prof *perf.Profiler
}

// DefaultLimit caps retained spans; beyond it new spans are counted as
// dropped (the digest still folds them, so determinism survives
// truncation).
const DefaultLimit = 8 << 20

// New returns a tracer that retains the full span store (for export and
// critical-path analysis), capped at limit spans (<=0: DefaultLimit).
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Tracer{
		retain:  true,
		limit:   limit,
		open:    make(map[uint64]int),
		pending: make(map[uint64]*Span),
		hash:    fnvOffset,
	}
}

// NewDigest returns a tracer in digest-only mode: spans are folded into a
// running fingerprint at close time and discarded, so memory stays
// bounded by the number of concurrently open spans. Used by the
// experiment runner, which wants the determinism fingerprint but not the
// store.
func NewDigest() *Tracer {
	return &Tracer{
		pending: make(map[uint64]*Span),
		hash:    fnvOffset,
	}
}

// Enabled reports whether the tracer is non-nil (for callers holding an
// interface or wanting a readable guard).
func (t *Tracer) Enabled() bool { return t != nil }

// SetProfiler attaches (or, with nil, detaches) a wall-clock phase
// profiler charging span bookkeeping to the causal phase.
func (t *Tracer) SetProfiler(p *perf.Profiler) {
	if t == nil {
		return
	}
	t.prof = p
}

// ---- Causal context (sim.TaskTracer) --------------------------------------

// Capture returns the current causal context for an event being
// scheduled.
func (t *Tracer) Capture() uint64 {
	if t == nil {
		return 0
	}
	return t.cur
}

// Restore swaps ctx in as the current causal context and returns the
// previous one. The engine brackets every event execution with a
// Restore(captured) / Restore(previous) pair.
func (t *Tracer) Restore(ctx uint64) uint64 {
	if t == nil {
		return 0
	}
	prev := t.cur
	t.cur = ctx
	return prev
}

// Current returns the TID of the transaction context in scope (0 when
// none) — the value the mesh stamps onto outgoing messages.
func (t *Tracer) Current() uint64 {
	if t == nil {
		return 0
	}
	return t.cur
}

// ---- Span recording --------------------------------------------------------

// beginOpen allocates an open span and returns its id. When the
// retention cap is hit the span spills to the pending map: it is not
// retained for export, but still closes into the digest so truncation
// never changes the determinism fingerprint.
func (t *Tracer) beginOpen(s Span) uint64 {
	prev := t.prof.Enter(perf.PhaseCausal)
	defer t.prof.Exit(prev)
	t.nextSID++
	s.ID = t.nextSID
	if t.retain && len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
		t.open[s.ID] = len(t.spans) - 1
		return s.ID
	}
	if t.retain {
		t.dropped++
	}
	cp := s
	t.pending[s.ID] = &cp
	return s.ID
}

// endOpen closes an open span at cycle end and folds it into the digest.
func (t *Tracer) endOpen(id, end uint64) *Span {
	if id == 0 {
		return nil
	}
	prev := t.prof.Enter(perf.PhaseCausal)
	defer t.prof.Exit(prev)
	if idx, ok := t.open[id]; ok {
		delete(t.open, id)
		sp := &t.spans[idx]
		sp.End = end
		t.fold(sp)
		return sp
	}
	sp, ok := t.pending[id]
	if !ok {
		return nil
	}
	delete(t.pending, id)
	sp.End = end
	t.fold(sp)
	return sp
}

// record stores one already-complete span (begin and end both known at
// record time, e.g. a network flight whose delivery the mesh resolved
// eagerly).
func (t *Tracer) record(s Span) {
	prev := t.prof.Enter(perf.PhaseCausal)
	defer t.prof.Exit(prev)
	t.nextSID++
	s.ID = t.nextSID
	t.fold(&s)
	if t.retain {
		if len(t.spans) >= t.limit {
			t.dropped++
			return
		}
		t.spans = append(t.spans, s)
	}
}

// BeginTxn opens a coherence-transaction root span at node for block and
// makes the new TID the current causal context (the request message sent
// next, and the whole event chain it triggers, inherit it). It returns
// the TID.
func (t *Tracer) BeginTxn(node int, block uint64, now uint64) uint64 {
	if t == nil {
		return 0
	}
	t.nextTID++
	tid := t.nextTID
	t.cur = tid
	sid := t.beginOpen(Span{
		TID: tid, Kind: KindTxn, Node: int32(node), Peer: -1, MsgKind: -1,
		Block: block, Begin: now, End: now, Why: "txn",
	})
	t.noteRoot(tid, sid)
	return tid
}

// EndTxn closes a transaction's root span.
func (t *Tracer) EndTxn(tid, now uint64) {
	if t == nil || tid == 0 {
		return
	}
	t.endOpen(t.rootSpan(tid), now)
}

// BeginSync opens a synchronization-episode root span (op names the
// operation: "lock-acquire", "lock-release", "barrier", "flag-set",
// "flag-wait", "fence") and makes its TID current.
func (t *Tracer) BeginSync(node int, obj uint64, op string, now uint64) uint64 {
	if t == nil {
		return 0
	}
	t.nextTID++
	tid := t.nextTID
	t.cur = tid
	sid := t.beginOpen(Span{
		TID: tid, Kind: KindSync, Node: int32(node), Peer: -1, MsgKind: -1,
		Obj: obj, Begin: now, End: now, Why: op,
	})
	t.noteRoot(tid, sid)
	return tid
}

// EndSync closes a synchronization episode's root span.
func (t *Tracer) EndSync(tid, now uint64) {
	if t == nil || tid == 0 {
		return
	}
	t.endOpen(t.rootSpan(tid), now)
}

func (t *Tracer) noteRoot(tid, sid uint64) {
	if t.rootIDs == nil {
		t.rootIDs = make(map[uint64]uint64)
	}
	t.rootIDs[tid] = sid
}

func (t *Tracer) rootSpan(tid uint64) uint64 {
	sid := t.rootIDs[tid]
	delete(t.rootIDs, tid)
	return sid
}

// BeginStall opens a CPU stall-episode span at node. tid is the
// transaction the processor is stalled on when known (0 otherwise); the
// waker's TID is captured at EndStall from the causal context the wake
// event carried. Returns the span id to pass to EndStall.
func (t *Tracer) BeginStall(node int, tid uint64, class StallClass, why string, now uint64) uint64 {
	if t == nil {
		return 0
	}
	return t.beginOpen(Span{
		TID: tid, Kind: KindStall, Class: class, Node: int32(node),
		Peer: -1, MsgKind: -1, Begin: now, End: now, Why: why,
	})
}

// EndStall closes a stall episode, recording the current causal context
// (the transaction whose completion event woke the processor) as the
// episode's cause. Zero-length episodes are discarded: no cycles were
// charged, so they carry no attribution weight.
func (t *Tracer) EndStall(sid, now uint64) {
	if t == nil || sid == 0 {
		return
	}
	if idx, ok := t.open[sid]; ok && t.spans[idx].Begin == now {
		// Drop the zero-length episode entirely: no cycles were charged.
		delete(t.open, sid)
		if last := len(t.spans) - 1; idx == last {
			t.spans = t.spans[:last]
		} else {
			t.spans[idx].ID = 0 // tombstone; skipped by readers
		}
		return
	}
	if sp, ok := t.pending[sid]; ok && sp.Begin == now {
		delete(t.pending, sid)
		return
	}
	if sp := t.endOpen(sid, now); sp != nil {
		sp.Cause = t.cur
	}
}

// Net records one message's network flight: src→dst, protocol message
// kind, begin (send) and end (delivery) cycles, and the NIC port
// queueing at the sending (outWait) and receiving (inWait) ends. tid is
// the causal context stamped on the message at send time.
func (t *Tracer) Net(tid uint64, src, dst, msgKind int, block uint64, begin, end, outWait, inWait uint64) {
	if t == nil {
		return
	}
	t.record(Span{
		TID: tid, Kind: KindNet, Node: int32(src), Peer: int32(dst),
		MsgKind: int32(msgKind), Block: block, Begin: begin, End: end,
		Wait: outWait, Wait2: inWait,
	})
}

// Retransmit records one reliable-transport retransmission wait: the
// message from src to dst was sent (or resent) at lastSend, presumed
// lost, and resent at now — the attempt-th retransmission. tid is the
// causal context stamped on the message, so the lost time lands on the
// transaction that was waiting for it and the critical-path analyzer can
// attribute loss-induced stalls (CauseRetx).
func (t *Tracer) Retransmit(tid uint64, src, dst, msgKind int, block uint64, lastSend, now uint64, attempt int) {
	if t == nil {
		return
	}
	t.record(Span{
		TID: tid, Kind: KindRetx, Node: int32(src), Peer: int32(dst),
		MsgKind: int32(msgKind), Block: block, Begin: lastSend, End: now,
		Wait: uint64(attempt), Why: "retx",
	})
}

// OpenStall describes one currently-open stall span — what a processor is
// parked on right now, for watchdog reports.
type OpenStall struct {
	Node  int
	TID   uint64
	Class StallClass
	Why   string
	Begin uint64
}

// OpenStalls returns the currently-open stall episodes, ordered by begin
// cycle then node (deterministic). Works in both retain and digest-only
// modes.
func (t *Tracer) OpenStalls() []OpenStall {
	if t == nil {
		return nil
	}
	var out []OpenStall
	add := func(s *Span) {
		if s.Kind == KindStall {
			out = append(out, OpenStall{
				Node: int(s.Node), TID: s.TID, Class: s.Class, Why: s.Why, Begin: s.Begin,
			})
		}
	}
	for _, idx := range t.open {
		add(&t.spans[idx])
	}
	for _, sp := range t.pending {
		add(sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Begin != out[j].Begin {
			return out[i].Begin < out[j].Begin
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Service records one home- or remote-side hardware service interval —
// directory access, memory access, bus fill, notice fan-out, notice or
// ack processing. reqAt is when the work was requested, start/end the
// actual occupancy window (start-reqAt is the queueing delay). The span
// is attributed to the current causal context.
func (t *Tracer) Service(kind Kind, node int, block uint64, reqAt, start, end uint64) {
	if t == nil {
		return
	}
	t.record(Span{
		TID: t.cur, Kind: kind, Node: int32(node), Peer: -1, MsgKind: -1,
		Block: block, Begin: reqAt, End: end, Wait: start - reqAt,
	})
}

// ---- Store accessors -------------------------------------------------------

// Spans returns the retained span store in record order. Entries with
// ID == 0 are discarded zero-length stalls and must be skipped. Nil in
// digest-only mode.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Count returns the number of spans folded into the digest (recorded
// complete plus closed), the canonical span count of a run.
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.closed
}

// OpenCount returns the number of spans opened but not yet closed.
func (t *Tracer) OpenCount() int {
	if t == nil {
		return 0
	}
	if t.retain {
		return len(t.open)
	}
	return len(t.pending)
}

// Dropped returns the spans discarded because the retention cap was hit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Digest returns the run's span-stream fingerprint: an FNV-1a fold of
// every span's content in close order plus the total count, rendered as
// "<count>-<hash>". The simulation is single-threaded and deterministic,
// so the digest is identical across repeated runs, worker counts, and
// machines — and is compared by the experiment regression gate.
func (t *Tracer) Digest() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%d-%016x", t.closed, t.hash)
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func (t *Tracer) fold(s *Span) {
	t.closed++
	h := t.hash
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	mix(s.TID)
	mix(s.Cause)
	mix(uint64(s.Kind)<<16 | uint64(s.Class)<<8)
	mix(uint64(uint32(s.Node)))
	mix(uint64(uint32(s.Peer)))
	mix(uint64(uint32(s.MsgKind)))
	mix(s.Block)
	mix(s.Obj)
	mix(s.Begin)
	mix(s.End)
	mix(s.Wait)
	mix(s.Wait2)
	for _, c := range []byte(s.Why) {
		h ^= uint64(c)
		h *= fnvPrime
	}
	t.hash = h
}

// byTID returns retained spans grouped by TID (tombstones skipped),
// with each group in record order.
func (t *Tracer) byTID() map[uint64][]*Span {
	m := make(map[uint64][]*Span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.ID == 0 {
			continue
		}
		m[s.TID] = append(m[s.TID], s)
	}
	return m
}
