package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
)

// workers is the simulation pool size of every runner the benchmark
// builds: the host it was tuned on has two CPUs.
const workers = 2

// poolLog collects a runner's lifecycle events (Runner.Emit) so the
// benchmark can time each cell and the pool without touching the
// runner's code.
type poolLog struct {
	mu              sync.Mutex
	queued, running map[string]time.Time
	done            map[string]time.Time
	nQueued, nDedup int
}

func newPoolLog() *poolLog {
	return &poolLog{
		queued: map[string]time.Time{}, running: map[string]time.Time{},
		done: map[string]time.Time{},
	}
}

func (p *poolLog) emit(ev runner.Event) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case runner.EventQueued:
		p.nQueued++
		if _, ok := p.queued[ev.FP]; !ok {
			p.queued[ev.FP] = now
		}
	case runner.EventDedup:
		p.nDedup++
	case runner.EventRunning:
		p.running[ev.FP] = now
	case runner.EventDone, runner.EventFailed:
		p.done[ev.FP] = now
	}
}

// poolStats summarizes the pool over one batch that took wall.
type poolStats struct {
	waitMS, busyFrac, tailS, dedupRatio float64
}

func (p *poolLog) stats(wall time.Duration) poolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var st poolStats
	var waits []float64
	var busy time.Duration
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for fp, start := range p.running {
		waits = append(waits, ms(start.Sub(p.queued[fp])))
		busy += p.done[fp].Sub(start)
		edges = append(edges, edge{start, 1}, edge{p.done[fp], -1})
	}
	// The pool's tail runs from the last moment every worker was busy to
	// the last cell done: the time the last cells ran with a worker idle.
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	var tailStart, lastDone time.Time
	running := 0
	for _, e := range edges {
		// A cell's done event can be logged just after the next cell's
		// running event, so the count may briefly read workers+1.
		if e.delta < 0 && running >= workers && running+e.delta < workers {
			tailStart = e.at
		}
		running += e.delta
		lastDone = e.at
	}
	if !tailStart.IsZero() {
		st.tailS = lastDone.Sub(tailStart).Seconds()
	}
	st.waitMS = mean(waits)
	if wall > 0 {
		st.busyFrac = busy.Seconds() / (workers * wall.Seconds())
	}
	if p.nQueued > 0 {
		st.dedupRatio = float64(p.nDedup) / float64(p.nQueued)
	}
	return st
}

// spans adds one span per executed cell under parent.
func (p *poolLog) spans(tr *tracer, parent int, label map[string]string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for fp, start := range p.running {
		tr.add(parent, label[fp], "runner.job", start, p.done[fp])
	}
}

// render renders every matrix table and figure plus the stable JSON and
// HTML reports, returning a digest of all the bytes.
func render(e *exp.Evaluator, tr *tracer, parent int, group string) ([32]byte, error) {
	var out bytes.Buffer
	text := []struct {
		name string
		f    func() string
	}{
		{"exp.Table1", func() string { return exp.Table1(config.Default(procs)) }},
		{"exp.Table2", func() string { return exp.Table2(e) }},
		{"exp.Table3", func() string { return exp.Table3(e) }},
		{"exp.Fig4", func() string { return exp.Fig4(e) }},
		{"exp.Fig5", func() string { return exp.Fig5(e) }},
		{"exp.Fig6", func() string { return exp.Fig6(e) }},
		{"exp.Fig7", func() string { return exp.Fig7(e) }},
		{"exp.Fig8", func() string { return exp.Fig8(e) }},
		{"exp.Fig9", func() string { return exp.Fig9(e) }},
		{"exp.TardisTable", func() string { return exp.TardisTable(e, config.ProtocolNames()) }},
	}
	for _, t := range text {
		tr.do(parent, group, t.name, func() { out.WriteString(t.f()) })
	}
	var rep exp.Report
	tr.do(parent, group, "exp.Report", func() { rep = e.Report().Stable() })
	var jerr, herr error
	tr.do(parent, group, "exp.WriteReportJSON", func() { jerr = exp.WriteReportJSON(&out, rep) })
	tr.do(parent, group, "exp.WriteHTML", func() { herr = exp.WriteHTML(&out, rep) })
	return sha256.Sum256(out.Bytes()), errors.Join(jerr, herr)
}

// matrixPass is one cold run of the paper matrix.
type matrixPass struct {
	wall    time.Duration
	cpu     time.Duration
	sys     time.Duration
	render  time.Duration
	cycles  uint64
	pool    poolStats
	rn      *runner.Runner
	digest  [32]byte
	counter simCounters
}

// runMatrixPass simulates every matrix cell through a fresh 2-worker
// runner with no store, submitted in the given order, renders every
// table, figure and report, calls VerifyAll, and then checks each cell
// against the reference (outside the timed region).
func (b *bench) runMatrixPass(order [][3]string, tr *tracer, group string) *matrixPass {
	scale := b.opt.scale
	p := &matrixPass{}
	log := newPoolLog()
	am := startAlloc()
	c0, s0 := cpuTimes()
	t0 := time.Now()
	root := tr.begin(0, group, "bench.matrix_pass")
	tr.do(root, group, "runner.New", func() { p.rn = runner.New(workers, nil) })
	p.rn.Emit = log.emit
	var e *exp.Evaluator
	tr.do(root, group, "exp.NewEvaluatorWith", func() { e = newEvaluator(scale, p.rn) })
	pre := tr.begin(root, group, "exp.Prefetch")
	e.Prefetch(order)
	tr.end(pre)
	prefetchWall := time.Since(t0)
	r0 := time.Now()
	rid := tr.begin(root, group, "exp.render")
	digest, rerr := render(e, tr, rid, group)
	tr.end(rid)
	p.render = time.Since(r0)
	var verr error
	tr.do(root, group, "exp.VerifyAll", func() { verr = e.VerifyAll() })
	tr.end(root)
	p.wall = time.Since(t0)
	c1, s1 := cpuTimes()
	p.cpu, p.sys = (c1+s1)-(c0+s0), s1-s0
	p.counter.allocB, p.counter.allocNo = am.since()
	p.digest = digest
	p.pool = log.stats(prefetchWall)
	if tr != nil {
		label := map[string]string{}
		for _, c := range order {
			label[e.Job(c[0], c[1], c[2]).Fingerprint()] = cellKey(scale, c)
		}
		log.spans(tr, pre, label)
	}
	b.record(errors.Join(rerr, verr))

	jobs := make([]runner.Job, len(order))
	for i, c := range order {
		jobs[i] = e.Job(c[0], c[1], c[2])
	}
	for i, res := range p.rn.DoAll(context.Background(), jobs) {
		b.record(b.ref.checkResult(scale, order[i], res))
		p.cycles += res.ExecCycles
		p.counter.addResult(res)
	}
	return p
}

// restart rebuilds the reporting stack over the pass's warm runner: a
// new evaluator fetches every cell with Evaluator.Get (served from the
// runner's memo without simulating) and re-renders every table, figure
// and report, whose bytes must match the cold pass's. It returns the
// restart's CPU time and the mean CPU time of one fetch (a single Get
// takes microseconds, below the CPU clock's resolution).
func (b *bench) restart(p *matrixPass, order [][3]string) (restart, fetch time.Duration) {
	var digest [32]byte
	var err error
	_, restart = quiet(func() {
		e := newEvaluator(b.opt.scale, p.rn)
		f0 := cpuTime()
		for _, c := range order {
			e.Get(c[0], c[1], c[2])
		}
		fetch = (cpuTime() - f0) / time.Duration(len(order))
		digest, err = render(e, nil, 0, "")
	})
	if err == nil && digest != p.digest {
		err = fmt.Errorf("matrix restart rendered different bytes than the cold pass")
	}
	if m := p.rn.Meta(); err == nil && m.Simulated != len(order) {
		err = fmt.Errorf("matrix restart simulated: %d executions for %d cells", m.Simulated, len(order))
	}
	b.record(err)
	return restart, fetch
}

// restartsPerPass is how many warm restarts follow each cold pass, in
// batches of restartBatch. One restart sample is a batch's mean: single
// restarts switch between a fast and a slow speed with the host, and a
// median of single restarts jumps between the two as their mix crosses
// one half, where a batch mean moves in proportion to the mix.
const (
	restartsPerPass = 100
	restartBatch    = 5
)

// runMatrix is the matrix-small workload: the cold paper matrix
// (table2..fig9 plus tardis, 70 cells at small scale) through
// exp.NewEvaluatorWith and a 2-worker runner, the paperbench path. The
// seed shuffles the order in which cells are submitted.
func runMatrix(b *bench) error {
	if _, err := b.timeSetups(b.warmUp); err != nil {
		return err
	}
	cells := matrixCells()
	b.units = fmt.Sprintf("operations (%d cells and %d warm restarts per pass)", len(cells), restartsPerPass)
	if b.opt.trace {
		return b.traceMatrix(cells)
	}
	var walls, cpus, rates, fetch, restarts []float64
	t0 := time.Now()
	var last time.Duration
	for n := 0; b.window(time.Since(t0), last, n); n++ {
		order := shuffled(b.rng, cells)
		var p *matrixPass
		speed := b.hostSpeedAround(5, func() { p = b.runMatrixPass(order, nil, "") })
		for range restartsPerPass / restartBatch {
			var d, f time.Duration
			for range restartBatch {
				now := b.hostSpeed(1)
				rd, rf := b.restart(p, shuffled(b.rng, order))
				d += scaled(rd, now)
				f += scaled(rf, now)
				pace(restartsPerPass)
			}
			restarts = append(restarts, ms(d/restartBatch))
			fetch = append(fetch, ms(f/restartBatch))
		}
		last = p.wall
		walls = append(walls, p.wall.Seconds())
		cpu := scaled(p.cpu, speed)
		cpus = append(cpus, cpu.Seconds())
		rates = append(rates, float64(p.cycles)/1e6/cpu.Seconds())
	}
	fmt.Printf("matrix: %d passes of %d cells at %s, pass wall %v s, CPU %v s\n", len(walls), len(cells), b.opt.scale, walls, cpus)
	b.set("cpu_s", median(cpus))
	b.set("sim_mcycles_per_cpu_s", median(rates))
	b.set("fetch_ms_p50", quantile(fetch, 0.5))
	b.set("fetch_ms_p90", quantile(fetch, 0.9))
	b.set("restart_ms_p50", quantile(restarts, 0.5))
	b.set("restart_ms_p90", quantile(restarts, 0.9))
	return nil
}

// traceMatrix is matrix-small's traced run: one traced pass, then the
// tax ladder at the same scale and the unit probes.
func (b *bench) traceMatrix(cells [][3]string) error {
	p := b.runMatrixPass(shuffled(b.rng, cells), b.tr, "pass")
	b.setTraceCost(p.wall, 1)
	b.set("runner.wait_ms", p.pool.waitMS)
	b.set("runner.busy_frac", p.pool.busyFrac)
	b.set("runner.pool_tail_s", p.pool.tailS)
	b.set("runner.dedup_ratio", p.pool.dedupRatio)
	b.set("exp.render_ms", ms(p.render))
	b.set("os.sys_ms", ms(p.sys))
	b.setCounts(&p.counter)
	b.setPerfShares(&p.counter)
	b.ladder(b.opt.scale)
	b.probes()
	return nil
}
