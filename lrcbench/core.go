package main

import (
	"fmt"
	"time"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/machine"
)

// corePass is one serial pass over the Fig 4 cells.
type corePass struct {
	wall    time.Duration
	cpu     time.Duration
	sys     time.Duration
	cycles  uint64
	runMS   []float64
	counter simCounters
}

// runCorePass runs every cell one at a time through lazyrc.RunApp — no
// telemetry, causal spans, profiler or runner — and checks each against
// the reference.
func (b *bench) runCorePass(order [][3]string, tr *tracer, group string) *corePass {
	scale := b.opt.scale
	e := newEvaluator(scale, nil)
	p := &corePass{}
	am := startAlloc()
	pc0, ps0 := cpuTimes()
	t0 := time.Now()
	root := tr.begin(0, group, "bench.core_pass")
	for _, c := range order {
		j := e.Job(c[0], c[1], c[2])
		key := cellKey(scale, c)
		var app apps.App
		var err error
		tr.do(root, key, "apps.New", func() { app, err = apps.New(j.App, j.Scale) })
		if err != nil {
			b.record(wrapKey(key, err))
			continue
		}
		var m *machine.Machine
		c0 := cpuTime()
		tr.do(root, key, "lazyrc.RunApp", func() { m, err = lazyrc.RunApp(j.Cfg, j.Proto, app) })
		p.runMS = append(p.runMS, ms(cpuTime()-c0))
		b.record(b.checkMachine(scale, c, m, err))
		if m != nil {
			p.cycles += m.Stats.ExecutionTime()
			p.counter.addMachine(m)
		}
	}
	tr.end(root)
	p.wall = time.Since(t0)
	pc1, ps1 := cpuTimes()
	p.cpu, p.sys = (pc1+ps1)-(pc0+ps0), ps1-ps0
	p.counter.allocB, p.counter.allocNo = am.since()
	return p
}

// coldStart measures the CPU time a fresh simulation pays before its
// first cycle: machine.New plus the application's Setup (input generation
// excluded).
func (b *bench) coldStart(c [3]string) time.Duration {
	e := newEvaluator(b.opt.scale, nil)
	j := e.Job(c[0], c[1], c[2])
	app, err := apps.New(j.App, j.Scale)
	if err != nil {
		b.record(err)
		return 0
	}
	_, d := quiet(func() {
		var m *machine.Machine
		if m, err = machine.New(j.Cfg, j.Proto); err == nil {
			app.Setup(m)
		}
	})
	if err != nil {
		b.record(err)
	}
	return d
}

// coldStartSweeps is how many cold-start sweeps follow a pass. One
// sweep brings up every cell's machine once; its sample is their sum,
// since a single cell's sample is a fraction of a millisecond to a few
// milliseconds and a quantile over the cells would jump between them.
const coldStartSweeps = 10

// runCore is the core-medium workload: the Fig 4 cells (sc/erc/lrc) of
// every app but barnes-hut, 18 cells at medium scale, run serially
// through lazyrc.RunApp with the configurations Evaluator.Job builds.
// It isolates the simulator core from the observability planes and the
// runner.
func runCore(b *bench) error {
	if _, err := b.timeSetups(b.warmUp); err != nil {
		return err
	}
	cells := coreCells()
	b.units = fmt.Sprintf("cells (%d per pass)", len(cells))
	if b.opt.trace {
		p := b.runCorePass(shuffled(b.rng, cells), b.tr, "pass")
		b.setTraceCost(p.wall, 1)
		b.set("os.sys_ms", ms(p.sys))
		b.setCounts(&p.counter)
		var lc simCounters
		for _, r := range b.ladder(b.opt.scale) {
			if r.Perf != nil {
				lc.addPerf(r.Perf)
			}
		}
		b.setPerfShares(&lc)
		b.probes()
		return nil
	}
	var walls, cpus, rates, fetch, starts []float64
	t0 := time.Now()
	var last time.Duration
	for n := 0; b.window(time.Since(t0), last, n); n++ {
		order := shuffled(b.rng, cells)
		var p *corePass
		speed := b.hostSpeedAround(5, func() { p = b.runCorePass(order, nil, "") })
		for range coldStartSweeps {
			now := b.hostSpeed(1)
			var sum time.Duration
			for _, c := range shuffled(b.rng, order) {
				sum += b.coldStart(c)
			}
			starts = append(starts, ms(scaled(sum, now)))
			pace(coldStartSweeps)
		}
		last = p.wall
		walls = append(walls, p.wall.Seconds())
		cpu := scaled(p.cpu, speed)
		cpus = append(cpus, cpu.Seconds())
		rates = append(rates, float64(p.cycles)/1e6/cpu.Seconds())
		for _, m := range p.runMS {
			fetch = append(fetch, m*speed)
		}
	}
	fmt.Printf("core: %d passes of %d cells at %s, pass wall %v s, CPU %v s\n", len(walls), len(cells), b.opt.scale, walls, cpus)
	b.set("cpu_s", median(cpus))
	b.set("sim_mcycles_per_cpu_s", median(rates))
	b.set("fetch_ms_p50", quantile(fetch, 0.5))
	b.set("fetch_ms_p90", quantile(fetch, 0.9))
	b.set("restart_ms_p50", quantile(starts, 0.5))
	b.set("restart_ms_p90", quantile(starts, 0.9))
	return nil
}
