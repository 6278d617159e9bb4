//go:build go1.23

// iter.Pull is a Go 1.23 API. The build constraint raises this file's
// language version to match, so the module's go directive (and every
// module that requires this one) can stay where it is.

package sim

import (
	"fmt"
	"iter"
)

// Context is a coroutine-style simulated processor context. Its body runs
// as an iter.Pull coroutine strictly interleaved with the engine: at any
// instant either the engine (and its event handlers) or exactly one
// context is executing, and control passes between them by a direct
// coroutine switch rather than through the goroutine scheduler. A panic
// in the body comes back out of Engine.Run on the caller's goroutine.
//
// A context interacts with simulated time through Sleep and Park/Wake.
// Park must only be called after the caller has arranged — directly or
// through an event handler — for Wake to be invoked later; the engine
// detects the alternative (all events drained, contexts still parked) and
// panics with a deadlock report.
type Context struct {
	eng  *Engine
	name string

	next   func() (struct{}, bool) // runs the body until it next blocks or returns
	stop   func()                  // unwinds a suspended body (see Engine.release)
	yield  func(struct{}) bool     // suspends the body; false once stopped
	resume func()                  // event callback that transfers control here

	done   bool
	parked bool

	// progress counts resumptions; the watchdog reads it to tell a
	// context that is advancing from one that is wedged.
	progress uint64
}

// abandoned is the panic value that unwinds the body of a context whose
// coroutine is stopped while suspended. Only Spawn's wrapper recovers it.
type abandoned struct{}

// Spawn creates a context executing fn, scheduled to start at the current
// simulated time. The name appears in deadlock reports.
func (e *Engine) Spawn(name string, fn func(*Context)) *Context {
	c := &Context{eng: e, name: name}
	c.resume = c.transfer
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (abandoned{}) {
				panic(r)
			}
		}()
		fn(c)
		c.done = true
	})
	e.contexts = append(e.contexts, c)
	e.At(e.now, c.resume)
	return c
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Engine returns the engine this context belongs to.
func (c *Context) Engine() *Engine { return c.eng }

// Now returns the current simulated time. Valid only while the context is
// running.
func (c *Context) Now() Time { return c.eng.now }

// transfer hands control from the engine to the context and returns when
// the context blocks or finishes. It must run on the engine side (i.e.,
// from an event handler). A panic in the body propagates out of it.
func (c *Context) transfer() {
	if c.done {
		panic(fmt.Sprintf("sim: resuming finished context %q", c.name))
	}
	c.progress++
	c.next()
}

// block yields control to the engine and returns when the context is
// resumed. It must run on the context itself. If the engine abandons the
// context instead, block unwinds the body with the abandoned panic.
func (c *Context) block() {
	if !c.yield(struct{}{}) {
		panic(abandoned{})
	}
}

// Sleep advances the context by d cycles of simulated time, letting other
// activity proceed in between.
func (c *Context) Sleep(d uint64) {
	c.eng.After(d, c.resume)
	c.block()
}

// Park suspends the context until some event handler calls Wake. The why
// string describes what is being waited for; it appears in deadlock
// reports. Park returns the time spent parked.
func (c *Context) Park(why string) uint64 {
	start := c.eng.now
	c.parked = true
	c.eng.parked[c] = why
	c.block()
	return c.eng.now - start
}

// Wake schedules the parked context to resume at the current simulated
// time. It must be called from an event handler, never from another
// context's body, and panics if the context is not parked.
func (c *Context) Wake() { c.WakeAt(c.eng.now) }

// WakeAt schedules the parked context to resume at absolute time t >= now.
func (c *Context) WakeAt(t Time) {
	if !c.parked {
		panic(fmt.Sprintf("sim: waking context %q which is not parked", c.name))
	}
	c.parked = false
	delete(c.eng.parked, c)
	c.eng.At(t, c.resume)
}

// Parked reports whether the context is currently parked.
func (c *Context) Parked() bool { return c.parked }

// Progress returns the context's resumption count — the watchdog's
// forward-progress measure.
func (c *Context) Progress() uint64 { return c.progress }

// Done reports whether the context body has returned.
func (c *Context) Done() bool { return c.done }
