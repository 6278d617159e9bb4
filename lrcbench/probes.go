package main

import (
	"time"

	"lazyrc/internal/config"
	"lazyrc/internal/mesh"
	"lazyrc/internal/sim"
)

// Layer unit probes, built only on the public sim and mesh functions.
// Each probe runs a fixed number of operations per round and reports
// the median round, so one descheduled round does not move the figure.

const (
	probeRounds = 9
	probeOps    = 1 << 14
)

// probeResult is one probe's per-operation cost.
type probeResult struct {
	ns, allocs, bytes float64
}

// runProbe times probeRounds rounds of body (which performs probeOps
// operations) and returns the median per-operation cost.
func runProbe(body func()) probeResult {
	var ns, allocs, bytes []float64
	body() // warm up
	for range probeRounds {
		am := startAlloc()
		t0 := time.Now()
		body()
		d := time.Since(t0)
		b, o := am.since()
		ns = append(ns, float64(d.Nanoseconds())/probeOps)
		allocs = append(allocs, float64(o)/probeOps)
		bytes = append(bytes, float64(b)/probeOps)
	}
	return probeResult{median(ns), median(allocs), median(bytes)}
}

// probeHeap measures one Engine.At plus its dispatch in Engine.Run
// against a standing queue of 1024 events, so the heap's sift depth is
// representative of a running simulation.
func probeHeap() probeResult {
	const standing = 1024
	nop := func() {}
	return runProbe(func() {
		e := sim.NewEngine()
		for i := 0; i < probeOps; i += standing {
			base := e.Now()
			for j := 0; j < standing; j++ {
				e.At(base+sim.Time((j*2654435761)%100003), nop)
			}
			e.Run()
		}
	})
}

// probeHandoff measures one Context.Sleep round trip: the context yields
// to the engine, the wake-up event is dispatched, and control is handed
// back — the coroutine handoff every simulated processor step pays.
func probeHandoff() probeResult {
	return runProbe(func() {
		e := sim.NewEngine()
		e.Spawn("probe", func(c *sim.Context) {
			for range probeOps {
				c.Sleep(1)
			}
		})
		e.Run()
	})
}

// probeMeshSend measures one Network.Send with its routing, port
// occupancy and delivery on a 16-node mesh with no-op handlers.
func probeMeshSend() probeResult {
	const nodes = 16
	return runProbe(func() {
		eng := sim.NewEngine()
		net := mesh.New(eng, config.Default(nodes))
		for id := 0; id < nodes; id++ {
			net.Handle(id, func(mesh.Msg) {})
		}
		if err := net.Finalize(); err != nil {
			panic(err) // a fixed 16-node mesh always finalizes
		}
		for i := range probeOps {
			net.Send(mesh.Msg{Src: i % nodes, Dst: (i*5 + 1) % nodes, Kind: 0, Size: 16})
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	})
}
