package causal

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tid := tr.BeginTxn(0, 1, 10); tid != 0 {
		t.Fatalf("nil BeginTxn returned %d", tid)
	}
	tr.EndTxn(0, 20)
	if sid := tr.BeginStall(0, 0, StallRead, "x", 10); sid != 0 {
		t.Fatalf("nil BeginStall returned %d", sid)
	}
	tr.EndStall(0, 20)
	tr.Net(0, 0, 1, 0, 0, 0, 1, 0, 0)
	tr.Service(KindDir, 0, 0, 0, 0, 1)
	if tr.Spans() != nil || tr.Count() != 0 || tr.OpenCount() != 0 || tr.Digest() != "" {
		t.Fatal("nil tracer leaks state")
	}
}

func TestTxnLifecycleAndContext(t *testing.T) {
	tr := New(0)
	tid := tr.BeginTxn(3, 0x40, 100)
	if tid == 0 {
		t.Fatal("no TID issued")
	}
	if tr.Current() != tid {
		t.Fatalf("BeginTxn did not set the causal context: %d", tr.Current())
	}
	// Simulate an engine event boundary: capture at schedule, restore
	// around execution.
	ctx := tr.Capture()
	prev := tr.Restore(0)
	if tr.Current() != 0 || prev != tid {
		t.Fatal("Restore mishandled context")
	}
	tr.Restore(ctx)
	if tr.Current() != tid {
		t.Fatal("context not restored")
	}

	tr.Service(KindDir, 1, 0x40, 110, 112, 120)
	tr.EndTxn(tid, 200)
	if tr.OpenCount() != 0 {
		t.Fatalf("%d spans still open", tr.OpenCount())
	}
	var root, dir *Span
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.Kind {
		case KindTxn:
			root = s
		case KindDir:
			dir = s
		}
	}
	if root == nil || root.Begin != 100 || root.End != 200 || root.TID != tid {
		t.Fatalf("bad root span: %+v", root)
	}
	if dir == nil || dir.TID != tid || dir.Wait != 2 || dir.Begin != 110 || dir.End != 120 {
		t.Fatalf("bad dir span: %+v", dir)
	}
}

func TestZeroLengthStallDiscarded(t *testing.T) {
	tr := New(0)
	sid := tr.BeginStall(0, 1, StallRead, "read fill", 50)
	tr.EndStall(sid, 50) // zero length
	for _, s := range tr.Spans() {
		if s.ID != 0 {
			t.Fatalf("zero-length stall retained: %+v", s)
		}
	}
	if tr.OpenCount() != 0 {
		t.Fatal("discarded stall left open")
	}
	// A real stall records its cause from the current context.
	tr.Restore(77)
	sid = tr.BeginStall(0, 1, StallWrite, "write conflict", 60)
	tr.EndStall(sid, 90)
	var st *Span
	for i := range tr.spans {
		if tr.spans[i].Kind == KindStall && tr.spans[i].ID != 0 {
			st = &tr.spans[i]
		}
	}
	if st == nil || st.Cause != 77 || st.Dur() != 30 {
		t.Fatalf("bad stall span: %+v", st)
	}
}

func TestDigestMatchesAcrossModes(t *testing.T) {
	drive := func(tr *Tracer) {
		tid := tr.BeginTxn(0, 0x80, 10)
		tr.Net(tid, 0, 2, 3, 0x80, 12, 30, 1, 2)
		tr.Service(KindMem, 2, 0x80, 30, 31, 55)
		sid := tr.BeginStall(0, tid, StallRead, "read fill", 10)
		tr.EndStall(sid, 60)
		tr.EndTxn(tid, 60)
	}
	full, digest := New(0), NewDigest()
	drive(full)
	drive(digest)
	if full.Digest() != digest.Digest() {
		t.Fatalf("digest differs across modes: %q vs %q", full.Digest(), digest.Digest())
	}
	if digest.Spans() != nil {
		t.Fatal("digest-only tracer retained spans")
	}
	if full.Count() != digest.Count() || full.Count() == 0 {
		t.Fatalf("counts differ: %d vs %d", full.Count(), digest.Count())
	}

	// Any field perturbation must change the digest.
	other := New(0)
	tid := other.BeginTxn(0, 0x80, 10)
	other.Net(tid, 0, 2, 3, 0x80, 12, 31, 1, 2) // end 30 -> 31
	other.Service(KindMem, 2, 0x80, 30, 31, 55)
	sid := other.BeginStall(0, tid, StallRead, "read fill", 10)
	other.EndStall(sid, 60)
	other.EndTxn(tid, 60)
	if other.Digest() == full.Digest() {
		t.Fatal("digest insensitive to span content")
	}
}

func TestRetentionCapSpillsWithoutDigestDrift(t *testing.T) {
	drive := func(tr *Tracer) {
		for i := 0; i < 10; i++ {
			tid := tr.BeginTxn(i%4, uint64(i)<<6, uint64(10*i))
			tr.Service(KindDir, 1, uint64(i)<<6, uint64(10*i), uint64(10*i+1), uint64(10*i+4))
			tr.EndTxn(tid, uint64(10*i+9))
		}
	}
	full, capped := New(0), New(5)
	drive(full)
	drive(capped)
	if capped.Dropped() == 0 {
		t.Fatal("cap not exercised")
	}
	if got := len(capped.Spans()); got > 5 {
		t.Fatalf("cap exceeded: %d spans retained", got)
	}
	if capped.Digest() != full.Digest() {
		t.Fatalf("truncation changed the digest: %q vs %q", capped.Digest(), full.Digest())
	}
	if capped.OpenCount() != 0 {
		t.Fatal("spilled spans never closed")
	}
}

func TestAnalyzeCoverage(t *testing.T) {
	tr := New(0)
	// A read-miss transaction: txn root, net request, dir service with
	// queueing, memory, net reply — stall covers it all plus slack.
	tid := tr.BeginTxn(0, 0x100, 100)
	sid := tr.BeginStall(0, tid, StallRead, "read fill", 100)
	tr.Net(tid, 0, 3, 1, 0x100, 100, 120, 4, 2)  // port 100-104, wire 104-118, port 118-120
	tr.Service(KindDir, 3, 0x100, 120, 130, 140) // queue 120-130, service 130-140
	tr.Service(KindMem, 3, 0x100, 140, 140, 180) // pure service
	tr.Net(tid, 3, 0, 2, 0x100, 180, 200, 0, 0)  // wire only
	tr.EndStall(sid, 210)                        // 10 uncovered cycles at the tail
	tr.EndTxn(tid, 210)

	a := Analyze(tr)
	if got, want := a.Total(), uint64(110); got != want {
		t.Fatalf("attributed %d cycles, stall was %d", got, want)
	}
	if len(a.Episodes) != 1 {
		t.Fatalf("%d episodes", len(a.Episodes))
	}
	check := func(c Cause, want uint64) {
		t.Helper()
		if got := a.ByCause[StallRead][c]; got != want {
			t.Errorf("%s: attributed %d, want %d", c, got, want)
		}
	}
	check(CauseNetPort, 6)   // 4 out + 2 in on the request
	check(CauseNet, 34)      // 14 request wire + 20 reply wire
	check(CauseDirQueue, 10) // 120-130
	check(CauseDirService, 10)
	check(CauseMem, 40)
	check(CauseOther, 10) // uncovered tail

	// Episode segments partition the window.
	ep := &a.Episodes[0]
	at := ep.Span.Begin
	for _, seg := range ep.Segments {
		if seg.Begin != at {
			t.Fatalf("gap at %d", at)
		}
		at = seg.End
	}
	if at != ep.Span.End {
		t.Fatalf("segments end at %d, want %d", at, ep.Span.End)
	}
	if chain := ep.Chain(3); !strings.HasPrefix(chain, "mem:40") {
		t.Fatalf("chain should lead with mem: %q", chain)
	}
}

func TestAnalyzeCauseChain(t *testing.T) {
	tr := New(0)
	// Releaser's sync episode does fan-out work; acquirer stalls on the
	// lock. The wake event runs under the releaser's context, so the stall
	// records it as Cause, and the analyzer pulls the releaser's spans in.
	rel := tr.BeginSync(1, 7, "lock-release", 100)
	acq := tr.BeginSync(0, 7, "lock-acquire", 100)
	sid := tr.BeginStall(0, acq, StallSync, "lock wait", 100)
	tr.Restore(rel)
	tr.Service(KindFanout, 1, 0, 120, 120, 160) // releaser's notice posting
	tr.EndSync(rel, 160)
	// The grant delivery wakes the acquirer still under rel's context.
	tr.EndStall(sid, 180)
	tr.Restore(acq)
	tr.EndSync(acq, 180)

	a := Analyze(tr)
	if got := a.ByCause[StallSync][CauseFanout]; got != 40 {
		t.Fatalf("fanout on the causal chain attributed %d, want 40", got)
	}
	if got := a.ByCause[StallSync][CauseSerialization]; got != 40 {
		t.Fatalf("uncovered sync wait attributed %d to serialization, want 40", got)
	}
}

func TestFallbackWBDrain(t *testing.T) {
	tr := New(0)
	sid := tr.BeginStall(2, 0, StallSync, "release drain", 10)
	tr.EndStall(sid, 50)
	sid = tr.BeginStall(2, 0, StallWrite, "write buffer slot", 60)
	tr.EndStall(sid, 70)
	a := Analyze(tr)
	if got := a.CauseTotal(CauseWBDrain); got != 50 {
		t.Fatalf("wb-drain attributed %d, want 50", got)
	}
}

func TestTopNOrdering(t *testing.T) {
	tr := New(0)
	mk := func(begin, end uint64) {
		sid := tr.BeginStall(0, 0, StallRead, "read fill", begin)
		tr.EndStall(sid, end)
	}
	mk(10, 30)   // 20
	mk(50, 100)  // 50
	mk(200, 220) // 20, later begin
	a := Analyze(tr)
	top := a.TopN(2)
	if len(top) != 2 || top[0].Dur() != 50 || top[1].Span.Begin != 10 {
		t.Fatalf("bad TopN ordering: %+v", top)
	}
	if got := len(a.TopN(99)); got != 3 {
		t.Fatalf("TopN over-length returned %d", got)
	}
}

func TestPerfettoRoundTrip(t *testing.T) {
	tr := New(0)
	tid := tr.BeginTxn(0, 0x40, 10)
	tr.Net(tid, 0, 1, 2, 0x40, 12, 30, 1, 1)
	tr.Service(KindDir, 1, 0x40, 30, 32, 40)
	sid := tr.BeginStall(0, tid, StallRead, "read fill", 10)
	tr.EndStall(sid, 60)
	tr.EndTxn(tid, 60)
	st := tr.BeginSync(0, 3, "barrier", 70)
	tr.EndSync(st, 90)

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr, func(k int) string { return "MsgKind" }); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace fails validation: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	out := buf.String()
	for _, want := range []string{`"ph":"X"`, `"ph":"b"`, `"ph":"e"`, `"ph":"s"`, `"ph":"f"`, "node0", "node1", "stall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

func TestValidateTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		`{}`,
		`{"traceEvents": [{"ph":"X","pid":0,"tid":0,"ts":1,"dur":2}]}`,    // no name
		`{"traceEvents": [{"name":"x","ph":"Q","pid":0,"tid":0,"ts":1}]}`, // bad phase
		`{"traceEvents": [{"name":"x","ph":"b","pid":0,"tid":0,"ts":1}]}`, // async without id
		`not json`,
	}
	for _, c := range cases {
		if _, err := ValidateTrace([]byte(c)); err == nil {
			t.Errorf("accepted invalid trace: %s", c)
		}
	}
}
