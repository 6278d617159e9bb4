package sim

import "testing"

// BenchmarkEventHeapPushPop measures the scheduler's core data
// structure: one push and one pop against a primed heap, the operation
// pair every simulated event pays.
//
//	go test ./internal/sim -bench EventHeap -benchmem
func BenchmarkEventHeapPushPop(b *testing.B) {
	var h eventHeap
	nop := func() {}
	// Prime with a realistic standing population so the sift depth is
	// representative (an idle heap would make both operations trivial).
	for i := 0; i < 1024; i++ {
		h.pushEv(event{at: Time(i*2654435761) % 1_000_000, seq: uint64(i), fn: nop})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.pushEv(event{at: Time(i*40503) % 1_000_000, seq: uint64(1024 + i), fn: nop})
		h.popMin()
	}
}

// BenchmarkEngineDispatch measures the full engine round trip per event:
// schedule through the public API, then dispatch in Run — heap traffic
// plus the run loop's bookkeeping (event counter, cancellation poll,
// profiler branch).
func BenchmarkEngineDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	nop := func() {}
	b.ResetTimer()
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		n := batch
		if rem := b.N - done; rem < n {
			n = rem
		}
		base := e.Now()
		for i := 0; i < n; i++ {
			e.At(base+Time(i), nop)
		}
		e.Run()
	}
}

// BenchmarkContextSleep measures one coroutine handoff round trip: a
// context's Sleep(1) schedules its wake-up, yields to the engine, and the
// wake-up event hands control back — the switch every simulated
// processor pays on each miss, stall, sync operation and run-ahead
// quantum.
func BenchmarkContextSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("sleeper", func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkContextPingPong measures a wake-up crossing between two
// contexts: each iteration, the first context arranges for the second
// to be woken and parks, and the second wakes the first in turn — two
// Park/Wake round trips and four events per iteration.
func BenchmarkContextPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var ping, pong *Context
	wakePing := func() { ping.Wake() }
	wakePong := func() { pong.Wake() }
	ping = e.Spawn("ping", func(c *Context) {
		for i := 0; i < b.N; i++ {
			e.At(c.Now(), wakePong)
			c.Park("pong")
		}
	})
	pong = e.Spawn("pong", func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Park("ping")
			e.At(c.Now(), wakePing)
		}
	})
	b.ResetTimer()
	e.Run()
}
