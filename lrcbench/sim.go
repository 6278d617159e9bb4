package main

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/exp"
	"lazyrc/internal/machine"
	"lazyrc/internal/perf"
	"lazyrc/internal/runner"
	"lazyrc/internal/stats"
)

// metricsInterval is the telemetry sampling interval runner.Exec uses
// (unexported in the runner); the ladder's instrumented rungs sample at
// the same cadence so they do the same work.
const metricsInterval = 4096

// ladderCells are the cells the traced run's observability-tax ladder
// times one at a time: the lrc cells of fft and mp3d (the high-traffic
// apps) and of cholesky and locusroute (the cheap ones). The ladder runs
// each cell six times, so the expensive medium cells of barnes-hut,
// gauss and blu would push a traced core-medium run past three minutes
// on a 2-CPU host.
func ladderCells() [][3]string {
	return [][3]string{
		{"default", "cholesky", "lrc"},
		{"default", "fft", "lrc"},
		{"default", "locusroute", "lrc"},
		{"default", "mp3d", "lrc"},
	}
}

// coreCells are the Fig 4 cells without barnes-hut, whose three medium
// cells take nearly as long as the other eighteen together.
func coreCells() [][3]string {
	var out [][3]string
	for _, c := range fig4Cells() {
		if c[1] != "barnes-hut" {
			out = append(out, c)
		}
	}
	return out
}

// machineCell reads the reference fields a bare machine carries.
func machineCell(m *machine.Machine) refCell {
	msgs, bytes := m.Net.Stats()
	return refCell{ExecCycles: m.Stats.ExecutionTime(), Msgs: msgs, Bytes: bytes, MemDigest: m.MemDigest()}
}

// checkMachine folds a bare run's verification error and the reference
// comparison (digests excluded) into one error.
func (b *bench) checkMachine(scale apps.Scale, c [3]string, m *machine.Machine, runErr error) error {
	key := cellKey(scale, c)
	if m == nil {
		return fmt.Errorf("%s: %w", key, runErr)
	}
	return errors.Join(wrapKey(key, runErr), b.ref.check(key, machineCell(m), false))
}

func wrapKey(key string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", key, err)
}

// timeSetups runs the workload's set-up opt.setups times and records
// setup_s as the median of their CPU times at the reference host speed.
// It returns each set-up's host speed factor.
func (b *bench) timeSetups(setup func() error) ([]float64, error) {
	var secs, speeds []float64
	for range b.opt.setups {
		debug.FreeOSMemory() // every set-up starts from the same heap
		var d time.Duration
		var err error
		speed := b.hostSpeedAround(3, func() {
			c0 := cpuTime()
			err = setup()
			d = cpuTime() - c0
		})
		if err != nil {
			return nil, err
		}
		secs = append(secs, scaled(d, speed).Seconds())
		speeds = append(speeds, speed)
	}
	b.set("setup_s", median(secs))
	return speeds, nil
}

// warmUp is the simulation workloads' set-up: it runs every app's lrc
// cell at tiny scale through lazyrc.RunApp, checking each against the
// reference, so code paths and the heap are warm before timing.
func (b *bench) warmUp() error {
	e := newEvaluator(apps.Tiny, nil)
	for _, name := range exp.AppOrder {
		c := [3]string{"default", name, "lrc"}
		j := e.Job(c[0], c[1], c[2])
		app, err := apps.New(j.App, j.Scale)
		if err != nil {
			return err
		}
		m, err := lazyrc.RunApp(j.Cfg, j.Proto, app)
		b.record(b.checkMachine(apps.Tiny, c, m, err))
	}
	return nil
}

// simCounters are the simulated-count layer metrics of a set of cells.
type simCounters struct {
	cells           int
	events          uint64
	msgs, bytes     uint64
	missRate        float64
	shares          [stats.NumMissKinds]float64
	phaseNS         map[string]int64
	wallNS          int64
	allocB, allocNo uint64
}

func (s *simCounters) addMachine(m *machine.Machine) {
	s.cells++
	s.events += m.Eng.Events()
	msgs, bytes := m.Net.Stats()
	s.msgs += msgs
	s.bytes += bytes
	s.missRate += m.Stats.MissRate()
	sh := m.Stats.MissShares()
	for k := range sh {
		s.shares[k] += sh[k]
	}
}

func (s *simCounters) addResult(r *runner.Result) {
	s.cells++
	s.msgs += r.Msgs
	s.bytes += r.Bytes
	s.missRate += r.MissRate
	for k := range r.MissShares {
		s.shares[k] += r.MissShares[k]
	}
	if r.Perf != nil {
		s.addPerf(r.Perf)
		s.events += r.Perf.Events
	}
}

// addPerf folds one execution's phase profile into the share totals.
func (s *simCounters) addPerf(p *perf.Snapshot) {
	if s.phaseNS == nil {
		s.phaseNS = map[string]int64{}
	}
	for k, v := range p.Phases {
		s.phaseNS[k] += v
	}
	s.wallNS += p.WallNS
}

// setCounts records the simulated counts (sim.events, mesh.*, cache.*).
func (b *bench) setCounts(s *simCounters) {
	if s.cells == 0 {
		return
	}
	n := float64(s.cells)
	b.set("sim.events", float64(s.events))
	b.set("mesh.msgs", float64(s.msgs))
	b.set("mesh.bytes", float64(s.bytes))
	b.set("cache.miss_rate", s.missRate/n)
	for k := range s.shares {
		b.set("cache.share."+strings.ToLower(stats.MissKind(k).String()), s.shares[k]/n)
	}
	if s.allocNo > 0 {
		b.set("alloc.mb_per_cell", float64(s.allocB)/n/(1<<20))
		b.set("alloc.objs_per_cell", float64(s.allocNo)/n)
	}
}

// setPerfShares records the runner's phase profile as shares of the
// profiled wall time.
func (b *bench) setPerfShares(s *simCounters) {
	if s.wallNS == 0 {
		return
	}
	for _, ph := range []string{"dispatch", "mesh", "protocol", "directory", "membus", "telemetry", "causal"} {
		b.set("perf.share."+ph, float64(s.phaseNS[ph])/float64(s.wallNS))
	}
}

// probes runs the layer unit probes.
func (b *bench) probes() {
	h := probeHeap()
	b.set("sim.heap_ns", h.ns)
	b.set("sim.heap_allocs", h.allocs)
	b.set("sim.handoff_ns", probeHandoff().ns)
	s := probeMeshSend()
	b.set("mesh.send_ns", s.ns)
	b.set("mesh.send_allocs", s.allocs)
	b.set("mesh.send_bytes", s.bytes)
}

// ladder times every ladder cell at the given scale one at a time
// through each observability rung — bare lazyrc.RunApp, then
// apps.RunInstrumented, apps.RunTraced, apps.RunTracedWith with
// EnablePerf, and runner.Exec — and records each plane's tax. One more
// bare run, split into the calls lazyrc.RunApp makes (machine.New,
// App.Setup, Machine.Run, App.Verify), gives the per-cell layer times.
// It also checks that runner.Exec and lazyrc.RunApp agree exactly on
// ExecCycles, Msgs and MemDigest: the passivity the tax numbers rely on.
// It returns the runner rung's results.
func (b *bench) ladder(scale apps.Scale) []*runner.Result {
	e := newEvaluator(scale, nil)
	root := b.tr.begin(0, "ladder", "bench.ladder")
	defer b.tr.end(root)
	var newNS, setupNS, runNS, verifyNS, events int64
	var rung [5]time.Duration // bare, instrumented, traced, perf, runner
	var results []*runner.Result
	for _, c := range ladderCells() {
		j := e.Job(c[0], c[1], c[2])
		key := cellKey(scale, c)
		newApp := func(parent int) apps.App {
			var app apps.App
			b.tr.do(parent, key, "apps.New", func() {
				var err error
				if app, err = apps.New(j.App, j.Scale); err != nil {
					panic(err) // every ladder cell names a registered app
				}
			})
			return app
		}
		// timed runs f inside a span and returns its duration; f gets
		// the span's ID so nested calls become its children.
		timed := func(name string, f func(id int)) time.Duration {
			t0 := time.Now()
			id := b.tr.begin(root, key, name)
			f(id)
			b.tr.end(id)
			return time.Since(t0)
		}

		// Rung 0: bare lazyrc.RunApp, the base every tax is taken against.
		var bareM *machine.Machine
		var bareErr error
		rung[0] += timed("lazyrc.RunApp", func(id int) {
			bareM, bareErr = lazyrc.RunApp(j.Cfg, j.Proto, newApp(id))
		})
		errs := []error{b.checkMachine(scale, c, bareM, bareErr)}
		if bareM == nil {
			b.record(errors.Join(errs...))
			continue
		}

		// The same run split into the layer calls lazyrc.RunApp makes, for
		// the per-cell layer times.
		app := newApp(root)
		var m *machine.Machine
		var err error
		newNS += timed("machine.New", func(int) { m, err = machine.New(j.Cfg, j.Proto) }).Nanoseconds()
		if err != nil {
			b.record(wrapKey(key, err))
			continue
		}
		setupNS += timed("apps.Setup", func(int) { app.Setup(m) }).Nanoseconds()
		runNS += timed("machine.Run", func(int) { m.Run(app.Worker) }).Nanoseconds()
		var verr error
		verifyNS += timed("apps.Verify", func(int) { verr = app.Verify() }).Nanoseconds()
		events += int64(m.Eng.Events())
		errs = append(errs, b.checkMachine(scale, c, m, verr))

		var rerr error
		rung[1] += timed("apps.RunInstrumented", func(id int) {
			_, _, rerr = apps.RunInstrumented(j.Cfg, j.Proto, newApp(id), metricsInterval)
		})
		errs = append(errs, wrapKey(key, rerr))
		rung[2] += timed("apps.RunTraced", func(id int) {
			_, _, rerr = apps.RunTraced(j.Cfg, j.Proto, newApp(id), metricsInterval)
		})
		errs = append(errs, wrapKey(key, rerr))
		rung[3] += timed("apps.RunTracedWith", func(id int) {
			_, _, rerr = apps.RunTracedWith(j.Cfg, j.Proto, newApp(id), metricsInterval,
				func(m *machine.Machine) { m.EnablePerf() })
		})
		errs = append(errs, wrapKey(key, rerr))
		var res *runner.Result
		rung[4] += timed("runner.Exec", func(int) { res = runner.Exec(j) })
		errs = append(errs, b.ref.checkResult(scale, c, res))
		bare := machineCell(bareM)
		if res.ExecCycles != bare.ExecCycles || res.Msgs != bare.Msgs || res.MemDigest != bare.MemDigest {
			errs = append(errs, fmt.Errorf("%s: runner.Exec and lazyrc.RunApp disagree: %d/%d/%s vs %d/%d/%s",
				key, res.ExecCycles, res.Msgs, res.MemDigest, bare.ExecCycles, bare.Msgs, bare.MemDigest))
		}
		b.record(errors.Join(errs...))
		results = append(results, res)
	}
	n := float64(len(ladderCells()))
	b.set("machine.new_ms", float64(newNS)/1e6/n)
	b.set("apps.setup_ms", float64(setupNS)/1e6/n)
	b.set("machine.run_ms", float64(runNS)/1e6/n)
	b.set("apps.verify_ms", float64(verifyNS)/1e6/n)
	if events > 0 {
		b.set("sim.ns_per_event", float64(runNS)/float64(events))
	}
	bare := rung[0].Seconds()
	if bare > 0 {
		b.set("telemetry.tax_pct", 100*(rung[1]-rung[0]).Seconds()/bare)
		b.set("causal.tax_pct", 100*(rung[2]-rung[1]).Seconds()/bare)
		b.set("perf.tax_pct", 100*(rung[3]-rung[2]).Seconds()/bare)
		b.set("runner.tax_x", rung[4].Seconds()/bare)
	}
	fmt.Printf("ladder: %d cells at %s, bare %.3fs, instrumented %.3fs, traced %.3fs, perf %.3fs, runner.Exec %.3fs\n",
		len(ladderCells()), scale, bare, rung[1].Seconds(), rung[2].Seconds(), rung[3].Seconds(), rung[4].Seconds())
	return results
}

// setTraceCost records the wall time of one traced unit of work (a pass
// or an iteration) and the tracing overhead per unit: the host time
// spent inside the tracer over the units traced so far, divided by
// their number. That is what tracing adds to the traced wall; the
// difference of two separate walls would bury a cost of milliseconds
// under the host's run-to-run noise.
func (b *bench) setTraceCost(wall time.Duration, units int) {
	perUnit := b.tr.cost.Seconds() / float64(units)
	b.set("trace.wall_s", wall.Seconds())
	b.set("trace.overhead_s", perUnit)
	fmt.Printf("tracing: traced wall %.3fs per unit, of which %.6fs inside the tracer (%d spans over %d units)\n",
		wall.Seconds(), perUnit, b.tr.count(), units)
}
