package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same time: scheduling order
	e.At(20, func() { got = append(got, 3) })
	e.Run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("final time = %d, want 20", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEventsNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.At(1, func() {
		trace = append(trace, e.Now())
		e.After(3, func() { trace = append(trace, e.Now()) })
		e.After(1, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if fmt.Sprint(trace) != "[1 2 4]" {
		t.Fatalf("trace = %v, want [1 2 4]", trace)
	}
}

func TestHeapOrderingProperty(t *testing.T) {
	// Property: events fire in nondecreasing time order, and events at
	// equal times fire in scheduling order.
	f := func(times []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, ti := range times {
			at, idx := Time(ti), i
			e.At(at, func() { fired = append(fired, rec{at, idx}) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].idx < fired[j].idx
		}) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1].at == fired[i].at && fired[i-1].idx > fired[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var n int
	for i := 1; i <= 10; i++ {
		e.At(Time(i*10), func() { n++ })
	}
	e.RunUntil(50)
	if n != 5 {
		t.Fatalf("events run = %d, want 5", n)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if n != 10 {
		t.Fatalf("events run = %d, want 10", n)
	}
}

func TestContextSleepInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	mk := func(name string, period uint64, reps int) {
		e.Spawn(name, func(c *Context) {
			for i := 0; i < reps; i++ {
				c.Sleep(period)
				trace = append(trace, fmt.Sprintf("%s@%d", name, c.Now()))
			}
		})
	}
	mk("a", 10, 3)
	mk("b", 15, 2)
	e.Run()
	// At time 30 both wake; b scheduled its wake first (at time 15 vs
	// a's at time 20), so b fires first — scheduling order breaks ties.
	want := "a@10 b@15 a@20 b@30 a@30"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var c1 *Context
	var waited uint64
	c1 = e.Spawn("sleeper", func(c *Context) {
		waited = c.Park("the bell")
	})
	e.At(42, func() { c1.Wake() })
	e.Run()
	if waited != 42 {
		t.Fatalf("park duration = %d, want 42", waited)
	}
}

// TestDeadlockDetection also pins that the deadlock panic releases the
// parked contexts it reports on its way out of Run.
func TestDeadlockDetection(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("stuck-proc", func(c *Context) {
		c.Park("a wake that never comes")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked run did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "stuck-proc") || !strings.Contains(msg, "a wake that never comes") {
			t.Fatalf("deadlock report missing context info: %q", msg)
		}
		if n := settledGoroutines(base); n > base {
			t.Fatalf("goroutines = %d after a deadlock panic, above the baseline %d", n, base)
		}
	}()
	e.Run()
}

func TestGate(t *testing.T) {
	e := NewEngine()
	var g Gate
	var order []string
	g.Subscribe(func() { order = append(order, "sub1") })
	c := e.Spawn("waiter", func(c *Context) {
		g.Wait(c, "gate")
		order = append(order, fmt.Sprintf("ctx@%d", c.Now()))
	})
	_ = c
	e.At(7, func() { g.Open() })
	e.Run()
	if !g.IsOpen() {
		t.Fatal("gate not open after Open")
	}
	if strings.Join(order, ",") != "sub1,ctx@7" {
		t.Fatalf("order = %v", order)
	}
	// Waiting on an open gate returns immediately.
	if d := g.Wait(nil, ""); d != 0 {
		t.Fatalf("wait on open gate = %d, want 0", d)
	}
	// Subscribing to an open gate runs immediately.
	ran := false
	g.Subscribe(func() { ran = true })
	if !ran {
		t.Fatal("subscribe on open gate did not run")
	}
}

func TestGateDoubleOpenPanics(t *testing.T) {
	var g Gate
	g.Open()
	defer func() {
		if recover() == nil {
			t.Fatal("double open did not panic")
		}
	}()
	g.Open()
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(3)
	opened := false
	c.Gate().Subscribe(func() { opened = true })
	c.Done()
	c.Done()
	if opened {
		t.Fatal("gate opened early")
	}
	c.Done()
	if !opened {
		t.Fatal("gate not opened at zero")
	}
}

func TestCounterSettleWithNoWork(t *testing.T) {
	var c Counter
	c.Settle()
	if !c.Gate().IsOpen() {
		t.Fatal("settle with no work should open gate")
	}
}

func TestCounterDoneBelowZeroPanics(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Fatal("Done below zero did not panic")
		}
	}()
	c.Done()
}

func TestResourceFIFO(t *testing.T) {
	r := NewResource("mem")
	s, e := r.Acquire(100, 10)
	if s != 100 || e != 110 {
		t.Fatalf("first acquire = [%d,%d), want [100,110)", s, e)
	}
	s, e = r.Acquire(105, 10) // contended: queued behind first
	if s != 110 || e != 120 {
		t.Fatalf("second acquire = [%d,%d), want [110,120)", s, e)
	}
	s, e = r.Acquire(300, 5) // idle gap: starts immediately
	if s != 300 || e != 305 {
		t.Fatalf("third acquire = [%d,%d), want [300,305)", s, e)
	}
	if r.Busy() != 25 || r.Waited() != 5 || r.Uses() != 3 {
		t.Fatalf("stats busy=%d waited=%d uses=%d", r.Busy(), r.Waited(), r.Uses())
	}
}

func TestResourceWindow(t *testing.T) {
	r := NewResource("nic")
	// Uncontended: completes exactly at natural end.
	if end := r.AcquireWindow(100, 20); end != 100 {
		t.Fatalf("uncontended window end = %d, want 100", end)
	}
	// Contended: the port is busy until 100, so a message naturally
	// ending at 90 slips to 120.
	if end := r.AcquireWindow(90, 20); end != 120 {
		t.Fatalf("contended window end = %d, want 120", end)
	}
}

func TestResourceMonotonicProperty(t *testing.T) {
	// Property: under any request sequence, occupancy intervals never
	// overlap and never precede their request times.
	f := func(reqs []struct {
		At  uint16
		Dur uint8
	}) bool {
		r := NewResource("x")
		lastEnd := Time(0)
		for _, q := range reqs {
			s, e := r.Acquire(Time(q.At), uint64(q.Dur)+1)
			if s < Time(q.At) || s < lastEnd || e != s+uint64(q.Dur)+1 {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	// The same randomized workload must produce the identical schedule
	// twice.
	run := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace strings.Builder
		res := NewResource("shared")
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("p%d", i)
			jitter := uint64(rng.Intn(20))
			e.Spawn(name, func(c *Context) {
				for k := 0; k < 5; k++ {
					c.Sleep(jitter + 1)
					_, end := res.Acquire(c.Now(), 7)
					c.Sleep(end - c.Now())
					fmt.Fprintf(&trace, "%s@%d;", name, c.Now())
				}
			})
		}
		e.Run()
		return trace.String()
	}
	if a, b := run(1), run(1); a != b {
		t.Fatalf("nondeterministic schedule:\n%s\n%s", a, b)
	}
}

func TestContextAccessors(t *testing.T) {
	e := NewEngine()
	var c *Context
	c = e.Spawn("acc", func(ctx *Context) {
		if ctx.Name() != "acc" || ctx.Engine() != e {
			t.Error("context accessors wrong")
		}
		ctx.Sleep(5)
	})
	e.Run()
	if !c.Done() || c.Parked() {
		t.Fatal("final context state wrong")
	}
	if e.Events() == 0 {
		t.Fatal("no events counted")
	}
}

func TestWakeAt(t *testing.T) {
	e := NewEngine()
	var woke Time
	c := e.Spawn("sleeper", func(ctx *Context) {
		ctx.Park("scheduled wake")
		woke = ctx.Now()
	})
	e.At(10, func() { c.WakeAt(25) })
	e.Run()
	if woke != 25 {
		t.Fatalf("woke at %d, want 25", woke)
	}
}

func TestResourceAccessors(t *testing.T) {
	r := NewResource("mem0")
	if r.Name() != "mem0" {
		t.Fatal("name wrong")
	}
	r.Acquire(5, 10)
	if r.FreeAt() != 15 {
		t.Fatalf("FreeAt = %d", r.FreeAt())
	}
}

func TestCounterPending(t *testing.T) {
	var c Counter
	c.Add(2)
	if c.Pending() != 2 {
		t.Fatalf("pending = %d", c.Pending())
	}
}
