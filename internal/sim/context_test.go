package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits briefly for the goroutine count to fall to
// want and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestStoppedRunReleasesContexts: a run ended by Stop frees every
// unfinished context — parked, sleeping, or never started — by
// unwinding its body, so an abandoned engine holds no goroutines.
func TestStoppedRunReleasesContexts(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	unwound := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("parked%d", i), func(c *Context) {
			defer func() { unwound++ }()
			c.Park("a wake that never comes")
			t.Error("abandoned context ran past Park")
		})
		e.Spawn(fmt.Sprintf("sleeper%d", i), func(c *Context) {
			defer func() { unwound++ }()
			for {
				c.Sleep(3)
			}
		})
	}
	e.At(10, func() {
		e.Spawn("late", func(c *Context) { t.Error("context spawned after Stop ran") })
		e.Stop()
	})
	e.Run()
	if !e.Stopped() {
		t.Fatal("run did not stop")
	}
	if unwound != 8 {
		t.Fatalf("%d bodies unwound, want 8", unwound)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("goroutines = %d after a stopped run, above the baseline %d", n, base)
	}
}

// TestContextPanicSurfacesFromRun: a panic in a context body comes back
// out of Run on the caller's goroutine, with its original value, and the
// other contexts are released.
func TestContextPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("worker", func(c *Context) {
		for {
			c.Sleep(1)
		}
	})
	e.Spawn("buggy", func(c *Context) {
		c.Sleep(5)
		panic("app bug")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "app bug" {
		t.Fatalf("recovered %v, want the body's panic value", got)
	}
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at time %d, want 5", e.Now())
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("goroutines = %d after a context panic, above the baseline %d", n, base)
	}
}

// TestRunUntilKeepsContextsAlive: RunUntil leaves unfinished contexts
// suspended, and a later Run resumes them where they blocked.
func TestRunUntilKeepsContextsAlive(t *testing.T) {
	e := NewEngine()
	var at []Time
	c := e.Spawn("sleeper", func(c *Context) {
		for i := 0; i < 3; i++ {
			c.Sleep(10)
			at = append(at, c.Now())
		}
	})
	e.RunUntil(15)
	if c.Done() || len(at) != 1 {
		t.Fatalf("after RunUntil(15): done=%v wakes=%v", c.Done(), at)
	}
	e.Run()
	if !c.Done() || fmt.Sprint(at) != "[10 20 30]" {
		t.Fatalf("after Run: done=%v wakes=%v", c.Done(), at)
	}
}
