package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"lazyrc/internal/api"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// serviceSpecs is service-warm's sweep set: the full matrix at the
// workload's scale plus one sweep per (target, app) pair.
func serviceSpecs(scale string) []exp.Spec {
	specs := []exp.Spec{{Targets: []string{"all"}, Scale: scale, Procs: procs, Seed: cfgSeed}}
	for _, t := range exp.MatrixTargets() {
		for _, a := range exp.AppOrder {
			specs = append(specs, exp.Spec{Targets: []string{t}, Apps: []string{a}, Scale: scale, Procs: procs, Seed: cfgSeed})
		}
	}
	return specs
}

// timedStore wraps the store handed to the set-up runner so the
// benchmark can time store.Put from outside.
type timedStore struct {
	*store.Store
	mu    sync.Mutex
	putUS []float64
}

func (t *timedStore) Put(r *runner.Result) error {
	t0 := time.Now()
	err := t.Store.Put(r)
	d := time.Since(t0)
	t.mu.Lock()
	t.putUS = append(t.putUS, float64(d.Nanoseconds())/1e3)
	t.mu.Unlock()
	return err
}

// sweep is one persisted sweep and the report bytes the set-up service
// rendered for it.
type sweep struct {
	spec    exp.Spec
	id      string
	jsonSHA [32]byte
	htmlSHA [32]byte
}

// serviceState is what set-up leaves for the timed iterations.
type serviceState struct {
	dir       string
	sweeps    []sweep
	fps       []string // every distinct cell fingerprint
	simCycles uint64
	simCPU    time.Duration
	putUS     []float64
	pool      poolStats
	counter   simCounters
}

// populate is service-warm's set-up: it simulates every cell of the
// sweep set into a fresh internal/store directory through a 2-worker
// runner (checking each against the reference), then submits every
// sweep to an api.Service on that store — served from the store, and
// persisted in its sweep registry for the next boot — and records the
// SHA-256 of each sweep's JSON and HTML report.
func (b *bench) populate(dir string) (*serviceState, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &serviceState{dir: dir}
	ts := &timedStore{Store: st}
	rn := runner.New(workers, ts)
	log := newPoolLog()
	rn.Emit = log.emit
	specs := serviceSpecs(b.opt.scale.String())
	c0, t0 := cpuTime(), time.Now()
	for _, spec := range specs {
		e, err := spec.Evaluator()
		if err != nil {
			st.Close()
			return nil, err
		}
		e.R = rn
		e.Prefetch(spec.Cells())
	}
	s.simCPU = cpuTime() - c0
	s.pool = log.stats(time.Since(t0))
	s.putUS = ts.putUS

	// The full-matrix spec's cells are every distinct cell of the set.
	full := newEvaluator(b.opt.scale, nil)
	cells := specs[0].Cells()
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		jobs[i] = full.Job(c[0], c[1], c[2])
		s.fps = append(s.fps, jobs[i].Fingerprint())
	}
	for i, res := range rn.DoAll(context.Background(), jobs) {
		b.record(b.ref.checkResult(b.opt.scale, cells[i], res))
		s.simCycles += res.ExecCycles
		s.counter.addResult(res)
	}

	svc := api.NewService(workers, st, nil)
	ctx := context.Background()
	for _, spec := range specs {
		status, _, err := svc.SubmitSweep(ctx, spec)
		var done <-chan struct{}
		if err == nil {
			done, err = svc.SweepDone(status.ID)
		}
		if err != nil {
			svc.Close(ctx)
			st.Close()
			return nil, err
		}
		<-done
		js, jerr := svc.SweepReport(status.ID)
		html, herr := svc.SweepHTML(status.ID)
		if err := errors.Join(jerr, herr); err != nil {
			svc.Close(ctx)
			st.Close()
			return nil, err
		}
		s.sweeps = append(s.sweeps, sweep{spec: spec, id: status.ID,
			jsonSHA: sha256.Sum256(js), htmlSHA: sha256.Sum256(html)})
	}
	if m := svc.Runner().Meta(); m.Simulated != 0 {
		b.record(fmt.Errorf("service set-up: the service simulated %d cells the store already held", m.Simulated))
	}
	return s, errors.Join(svc.Close(ctx), st.Close())
}

// request is one client request's outcome.
type request struct {
	route string
	ms    float64
	err   error
}

// iteration is one warm restart plus the client passes over it.
type iteration struct {
	wall, cpu, sys, restart, open, boot time.Duration
	// speed scales the CPU samples to the reference host (hostprobe.go).
	speed float64
	// restartWall is the restart's wall time, printed beside the CPU
	// samples: it alone includes the waits for fsync and the network.
	restartWall time.Duration
	// fetchCPU is the process CPU time of the client phase divided by its
	// requests: one request takes about a tenth of a millisecond, too
	// short to time alone on the CPU clock.
	fetchCPU              time.Duration
	reqs                  []request
	busEvents, busDropped uint64
	hitRatio              float64
	getUS                 []float64
	allocB, allocNo       uint64
	err                   error
}

// clients is service-warm's closed-loop client count.
const clients = 2

// warmIteration restarts the daemon stack on the populated store —
// store.Open, api.NewService (whose boot replay restores every persisted
// sweep), a loopback api.NewServer — waits until every restored sweep is
// done, then runs the client passes (each client fetches every sweep's
// JSON and HTML report and re-submits its spec, in its own seeded
// order, then scrapes /metrics once) and shuts everything down.
func (b *bench) warmIteration(s *serviceState, orders [clients][]int, tr *tracer, group string, probeStore bool) *iteration {
	it := &iteration{}
	ctx := context.Background()
	// Start from a collected heap returned to the OS, so every iteration
	// meets the collector at the same points of its work and the resident
	// high-water mark does not creep up with the number of iterations.
	debug.FreeOSMemory()
	am := startAlloc()
	c0, s0 := cpuTimes()
	t0 := time.Now()
	root := tr.begin(0, group, "bench.warm_iteration")
	defer tr.end(root)
	var st *store.Store
	var svc *api.Service
	var err error
	var errs []error
	// The restart sample (store.Open until every restored sweep is done)
	// runs with the collector paused, as quiet's samples do.
	paused(func() {
		tr.do(root, group, "store.Open", func() { st, err = store.Open(s.dir) })
		it.open = time.Since(t0)
		if err != nil {
			return
		}
		b0 := time.Now()
		tr.do(root, group, "api.NewService", func() { svc = api.NewService(workers, st, nil) })
		it.boot = time.Since(b0)
		tr.do(root, group, "api.SweepDone", func() {
			for _, sw := range s.sweeps {
				done, err := svc.SweepDone(sw.id)
				if err != nil {
					errs = append(errs, fmt.Errorf("sweep %s not restored: %w", sw.id, err))
					continue
				}
				<-done
			}
		})
		it.restart, it.restartWall = cpuTime()-(c0+s0), time.Since(t0)
	})
	if err != nil {
		it.err = err
		return it
	}
	for _, sw := range s.sweeps {
		if status, err := svc.Sweep(sw.id); err == nil && status.State != api.StateDone {
			errs = append(errs, fmt.Errorf("restored sweep %s is %s: %s", sw.id, status.State, status.Error))
		}
	}
	if lk := st.Stats(); lk.Lookups > 0 {
		it.hitRatio = float64(lk.Lookups-lk.Misses) / float64(lk.Lookups)
	}
	if probeStore {
		for _, fp := range s.fps {
			g0 := time.Now()
			var ok bool
			tr.do(root, group, "store.Get", func() { _, ok = st.Get(fp) })
			it.getUS = append(it.getUS, float64(time.Since(g0).Nanoseconds())/1e3)
			if !ok {
				errs = append(errs, fmt.Errorf("store lost cell %s", fp))
			}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		it.err = errors.Join(append(errs, err, svc.Close(ctx), st.Close())...)
		return it
	}
	srv := &http.Server{Handler: api.NewServer(svc)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	var mu sync.Mutex
	var wg sync.WaitGroup
	fc0 := cpuTime()
	for c := range clients {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			cl := &api.Client{Base: base, HTTPClient: &http.Client{Transport: transport}}
			var local []request
			call := func(route string, f func() error) {
				id := tr.begin(root, fmt.Sprintf("%s-c%d-%d", group, len(local), c), "api."+route)
				r0 := time.Now()
				err := f()
				local = append(local, request{route: route, ms: ms(time.Since(r0)), err: err})
				tr.end(id)
			}
			for _, i := range order {
				sw := s.sweeps[i]
				call("report_json", func() error {
					body, err := cl.SweepReport(ctx, sw.id)
					if err == nil && sha256.Sum256(body) != sw.jsonSHA {
						err = fmt.Errorf("sweep %s: report.json differs from the set-up bytes", sw.id)
					}
					return err
				})
				call("report_html", func() error {
					body, err := cl.SweepHTML(ctx, sw.id)
					if err == nil && sha256.Sum256(body) != sw.htmlSHA {
						err = fmt.Errorf("sweep %s: report.html differs from the set-up bytes", sw.id)
					}
					return err
				})
				call("submit", func() error {
					status, err := cl.SubmitSweep(ctx, sw.spec)
					if err == nil && (status.ID != sw.id || status.State != api.StateDone) {
						err = fmt.Errorf("sweep %s: re-submission answered %s in state %s", sw.id, status.ID, status.State)
					}
					return err
				})
			}
			call("metrics", func() error { _, err := cl.Metrics(ctx); return err })
			mu.Lock()
			it.reqs = append(it.reqs, local...)
			mu.Unlock()
		}(orders[c])
	}
	wg.Wait()
	it.fetchCPU = (cpuTime() - fc0) / time.Duration(len(it.reqs))

	stats := svc.Stats()
	it.busEvents, it.busDropped = stats.Bus.Published, stats.Bus.Dropped
	if stats.Runner.Simulated != 0 {
		errs = append(errs, fmt.Errorf("warm restart simulated %d cells", stats.Runner.Simulated))
	}
	var closeErr error
	tr.do(root, group, "api.Close", func() {
		closeErr = errors.Join(svc.Close(ctx), srv.Shutdown(ctx))
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			closeErr = errors.Join(closeErr, err)
		}
	})
	tr.do(root, group, "store.Close", func() { closeErr = errors.Join(closeErr, st.Close()) })
	it.wall = time.Since(t0)
	c1, s1 := cpuTimes()
	it.cpu, it.sys = (c1+s1)-(c0+s0), s1-s0
	it.allocB, it.allocNo = am.since()
	it.err = errors.Join(append(errs, closeErr)...)
	return it
}

// runService is the service-warm workload: a warm lrcsimd restart over
// a populated store, then 2 closed-loop clients fetching every sweep's
// reports. It simulates nothing in the timed region.
func runService(b *bench) error {
	dir := filepath.Join(b.opt.outDir, fmt.Sprintf("service-store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var s *serviceState
	var rates []float64
	speeds, err := b.timeSetups(func() error {
		var err error
		s, err = b.populate(dir)
		if err == nil {
			rates = append(rates, float64(s.simCycles)/1e6/s.simCPU.Seconds())
		}
		return err
	})
	if err != nil {
		return err
	}
	for i, speed := range speeds {
		rates[i] /= speed
	}
	b.set("sim_mcycles_per_cpu_s", median(rates))
	b.units = fmt.Sprintf("operations (a restart of %d sweeps and %d requests per iteration)", len(s.sweeps), clients*(3*len(s.sweeps)+1))

	var its []*iteration
	t0 := time.Now()
	var last time.Duration
	for n := 0; b.window(time.Since(t0), last, n); n++ {
		var orders [clients][]int
		for c := range orders {
			orders[c] = shuffled(b.rng, seq(len(s.sweeps)))
		}
		speed := b.hostSpeed(1)
		it := b.warmIteration(s, orders, b.tr, fmt.Sprintf("it%d", n), b.opt.trace && n == 0)
		it.speed = speed
		b.record(it.err)
		for _, r := range it.reqs {
			b.record(r.err)
		}
		last = it.wall
		its = append(its, it)
	}
	var walls, cpus, restarts, restartWalls, fetch, latency []float64
	for _, it := range its {
		walls = append(walls, it.wall.Seconds())
		cpus = append(cpus, scaled(it.cpu, it.speed).Seconds())
		restarts = append(restarts, ms(scaled(it.restart, it.speed)))
		restartWalls = append(restartWalls, ms(it.restartWall))
		fetch = append(fetch, ms(scaled(it.fetchCPU, it.speed)))
		for _, r := range it.reqs {
			latency = append(latency, r.ms)
		}
	}
	fmt.Printf("service: %d warm iterations, %d requests, median iteration wall %.4fs, CPU %.4fs; restart wall p50 %.2fms p90 %.2fms; request wall latency p50 %.4fms p90 %.4fms\n",
		len(its), len(latency), median(walls), median(cpus), quantile(restartWalls, 0.5), quantile(restartWalls, 0.9), quantile(latency, 0.5), quantile(latency, 0.9))
	if b.opt.trace {
		b.setTraceCost(time.Duration(median(walls)*float64(time.Second)), len(its))
		return b.traceService(s, its)
	}
	b.set("cpu_s", median(cpus))
	b.set("restart_ms_p50", quantile(restarts, 0.5))
	b.set("restart_ms_p90", quantile(restarts, 0.9))
	b.set("fetch_ms_p50", quantile(fetch, 0.5))
	b.set("fetch_ms_p90", quantile(fetch, 0.9))
	return nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// traceService records service-warm's per-layer metrics from the set-up
// (store.Put, the populating runner and its simulated cells), the traced
// iterations (store, api, bus), a traced render of the full sweep, the
// tax ladder at the sweep scale and the unit probes.
func (b *bench) traceService(s *serviceState, traced []*iteration) error {
	var opens, boots, gets, scrapes, syss []float64
	routes := map[string][]float64{}
	var bus, dropped, allocB, allocNo uint64
	for _, it := range traced {
		opens = append(opens, ms(it.open))
		syss = append(syss, ms(it.sys))
		boots = append(boots, ms(it.boot))
		gets = append(gets, it.getUS...)
		for _, r := range it.reqs {
			routes[r.route] = append(routes[r.route], r.ms)
		}
		bus += it.busEvents
		dropped += it.busDropped
		allocB += it.allocB
		allocNo += it.allocNo
	}
	scrapes = routes["metrics"]
	n := float64(len(traced))
	b.set("os.sys_ms", median(syss))
	b.set("store.open_ms", median(opens))
	b.set("store.get_us", median(gets))
	b.set("store.hit_ratio", traced[0].hitRatio)
	b.set("store.put_us", median(s.putUS))
	b.set("api.boot_ms", median(boots))
	for _, route := range []string{"report_json", "report_html", "submit", "metrics"} {
		b.set("api.fetch_ms_p99."+route, quantile(routes[route], 0.99))
	}
	b.set("api.scrape_ms", mean(scrapes))
	b.set("bus.events", float64(bus)/n)
	b.set("bus.dropped", float64(dropped))
	b.set("runner.wait_ms", s.pool.waitMS)
	b.set("runner.busy_frac", s.pool.busyFrac)
	b.set("runner.pool_tail_s", s.pool.tailS)
	b.set("runner.dedup_ratio", s.pool.dedupRatio)
	b.setCounts(&s.counter)
	b.setPerfShares(&s.counter)
	cellsServed := float64(len(s.fps)) * n
	b.set("alloc.mb_per_cell", float64(allocB)/cellsServed/(1<<20))
	b.set("alloc.objs_per_cell", float64(allocNo)/cellsServed)

	st, err := store.Open(s.dir)
	if err != nil {
		return err
	}
	e, err := s.sweeps[0].spec.Evaluator()
	if err != nil {
		st.Close()
		return err
	}
	e.R = runner.New(workers, st)
	e.Prefetch(s.sweeps[0].spec.Cells())
	r0 := time.Now()
	rid := b.tr.begin(0, "render", "exp.render")
	_, rerr := render(e, b.tr, rid, "render")
	b.tr.end(rid)
	b.set("exp.render_ms", ms(time.Since(r0)))
	b.record(errors.Join(rerr, st.Close()))
	b.ladder(b.opt.scale)
	b.probes()
	return nil
}
