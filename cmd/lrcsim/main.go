// Command lrcsim runs one (application, protocol) pair on the simulated
// multiprocessor and prints its statistics: execution time, the
// cpu/read/write/sync cycle breakdown, miss rate and classification, and
// network traffic.
//
// Usage:
//
//	lrcsim -app mp3d -proto lrc -procs 64 -scale small
//
// With -protocols it runs the same application once per protocol in the
// list ("all" expands to every registered protocol) and prints a
// side-by-side comparison table instead of the single-run report:
//
//	lrcsim -app gauss -protocols lrc,tardis,tardis2
//
// With -replay it instead re-executes a counterexample schedule written
// by lrccheck, verifying the recorded outcome and final machine state
// hash reproduce byte for byte:
//
//	lrcsim -replay counterexample.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/causal"
	"lazyrc/internal/check"
	"lazyrc/internal/config"
	"lazyrc/internal/machine"
	"lazyrc/internal/mc"
	"lazyrc/internal/sim"
	"lazyrc/internal/telemetry"
	"lazyrc/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrcsim: ")
	var (
		appName    = flag.String("app", "gauss", "application: "+strings.Join(lazyrc.AppNames(), ", "))
		proto      = flag.String("proto", "lrc", "protocol: "+strings.Join(lazyrc.Protocols(), ", "))
		protosFlag = flag.String("protocols", "", "run -app once per protocol in this comma-separated list (\"all\" = every registered protocol) and print a comparison table; most single-run flags do not apply")
		procs      = flag.Int("procs", 64, "number of processors")
		scale      = flag.String("scale", "small", "input scale: tiny, small, medium, paper")
		future     = flag.Bool("future", false, "use the §4.3 future-machine parameters")
		verify     = flag.Bool("verify", true, "verify the computation against a serial reference")
		traceFile  = flag.String("trace", "", "write a JSON-lines protocol message trace to this file")
		traceMax   = flag.Uint64("trace-max", 1_000_000, "cap on traced events")
		contention = flag.Bool("contention", false, "print the per-resource contention report")
		traffic    = flag.Bool("traffic", false, "print the per-message-kind traffic breakdown")
		seed       = flag.Uint64("seed", 1, "random seed for seed-dependent subsystems (fault injection); the same seed replays the same schedule")
		faultPlan  = flag.String("faults", "", "fault-injection plan for the interconnect, e.g. 'delay=0.05:1:64,dup=0.03:32,reorder=0.02:48' (see internal/faults.ParsePlan)")
		faultSeed  = flag.Uint64("fault-seed", 0, "seed the fault injector independently of -seed (0: derive from -seed)")
		oracle     = flag.Bool("oracle", false, "with -faults: also run the same seed fault-free and require the faulted run to reproduce its end state (completion, and bit-identical final memory for timing-independent apps); exit nonzero on divergence")
		doCheck    = flag.Bool("check", false, "audit protocol invariants during and after the run; exit nonzero on any violation")
		checkEvery = flag.Uint64("check-every", 5000, "cycles between invariant audits under -check")
		watchdog   = flag.Uint64("watchdog", 0, "liveness watchdog probe interval in cycles (0: disabled); a stall aborts the run with a report; pick an interval far above the longest legitimate wait (e.g. 50000)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		replayFile = flag.String("replay", "", "replay a model-checker counterexample schedule (JSON from lrccheck) instead of running an application")
		metrics    = flag.Bool("metrics", false, "collect cycle-domain telemetry and write a JSONL export to -metrics-out")
		metricsOut = flag.String("metrics-out", "metrics.jsonl", "telemetry JSONL output path (with -metrics)")
		metricsInt = flag.Uint64("metrics-interval", 5000, "telemetry sampling interval in simulated cycles")
		reportFile = flag.String("report", "", "write a self-contained HTML run report to this file (implies telemetry collection)")
		validateM  = flag.String("validate-metrics", "", "validate a telemetry JSONL export against the current schema and exit")
		spans      = flag.Bool("spans", false, "trace causal coherence-transaction spans and write a Perfetto/Chrome trace-event JSON to -spans-out")
		spansOut   = flag.String("spans-out", "trace.json", "Perfetto trace JSON output path (with -spans)")
		spansMax   = flag.Int("spans-max", 0, "cap on retained spans (0: default limit)")
		critPath   = flag.Int("critical-path", 0, "print the critical-path stall attribution table and the N longest stall episodes (implies span collection)")
		validateS  = flag.String("validate-spans", "", "validate a Perfetto trace JSON export against the trace-event schema and exit")
		perfFlag   = flag.Bool("perf", false, "profile the simulator's wall-clock time by phase and print the breakdown after the report (passive: simulated results are unchanged)")
		progress   = flag.Int("progress", 0, "print a one-line progress heartbeat to stderr every N wall-clock seconds (0: disabled)")
		progTotal  = flag.Uint64("progress-total", 0, "expected total simulated cycles, for the -progress ETA estimate (0: no ETA)")
	)
	flag.Parse()

	if *validateS != "" {
		data, err := os.ReadFile(*validateS)
		if err != nil {
			log.Fatal(err)
		}
		n, err := causal.ValidateTrace(data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid trace-event JSON: %d events\n", *validateS, n)
		return
	}

	if *validateM != "" {
		hdr, err := telemetry.ValidateFile(*validateM)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid %s export: %d samples every %d cycles, %d series, %d histograms\n",
			*validateM, hdr.Schema, hdr.Samples, hdr.Interval, hdr.Series, hdr.Hists)
		return
	}

	if *replayFile != "" {
		replay(*replayFile)
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	sc, err := lazyrc.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}

	if *protosFlag != "" {
		compareProtocols(*protosFlag, *appName, sc, *procs, *future, *seed, *verify)
		return
	}

	app, err := lazyrc.NewApp(*appName, sc)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lazyrc.DefaultConfig(*procs)
	if *future {
		cfg = lazyrc.FutureConfig(*procs)
	}
	cfg.Seed = *seed
	cfg.FaultSeed = *faultSeed
	cfg.FaultPlan = *faultPlan

	var tr *trace.Tracer
	m, err := lazyrc.NewMachine(cfg, *proto)
	if err != nil {
		log.Fatal(err)
	}
	var auditor *check.Auditor
	if *doCheck {
		if *checkEvery == 0 {
			log.Fatal("-check-every must be positive")
		}
		auditor = check.New(m)
		auditor.Start(*checkEvery)
	}
	if *watchdog > 0 {
		m.EnableWatchdog(*watchdog, func(r sim.StallReport) {
			fmt.Fprintln(os.Stderr, r)
			m.Eng.Stop()
		})
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tr = trace.New(f, trace.WithLimit(*traceMax))
		tr.Attach(m)
	}
	if *metrics || *reportFile != "" {
		if *metricsInt == 0 {
			log.Fatal("-metrics-interval must be positive")
		}
		reg := m.EnableMetrics(*metricsInt)
		reg.SetMeta("app", app.Name())
		reg.SetMeta("scale", sc.String())
	}
	if *spans || *critPath > 0 {
		m.EnableSpans(true, *spansMax)
	}
	if *perfFlag {
		m.EnablePerf()
	}
	if *progress > 0 {
		enableProgress(m, *progress, *progTotal)
	}
	app.Setup(m)
	m.Run(app.Worker)
	if m.Eng.Stopped() {
		log.Fatal("run aborted by the liveness watchdog")
	}
	if *verify {
		if verr := app.Verify(); verr != nil {
			log.Fatalf("verification failed: %v", verr)
		}
	}
	if auditor != nil {
		auditor.Final()
		if cerr := auditor.Err(); cerr != nil {
			for _, v := range auditor.Violations() {
				fmt.Fprintln(os.Stderr, v)
			}
			log.Fatalf("invariant check failed: %v", cerr)
		}
		fmt.Fprintf(os.Stderr, "check: %d epoch audits + final audit, 0 violations\n", auditor.Epochs())
	}
	if s := m.FaultReport(); s != "" {
		fmt.Fprintln(os.Stderr, s)
	}
	if *oracle {
		if *faultPlan == "" {
			log.Fatal("-oracle requires -faults")
		}
		runOracle(cfg, *proto, *appName, sc, m)
	}
	if tr != nil {
		if terr := tr.Err(); terr != nil {
			log.Fatal(terr)
		}
		if tr.Truncated() {
			fmt.Fprintf(os.Stderr, "warning: trace truncated at %d events (-trace-max); %d further events dropped\n",
				tr.Events(), tr.Dropped())
		}
		fmt.Fprintf(os.Stderr, "traced %d events to %s\n", tr.Events(), *traceFile)
	}
	if *metrics {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.Tel.Export(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: %d samples (%s) to %s\n", m.Tel.Samples(), telemetry.SchemaVersion, *metricsOut)
	}
	if *reportFile != "" {
		f, err := os.Create(*reportFile)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("%s · %s · %d procs", app.Name(), *proto, *procs)
		if err := m.Tel.WriteHTML(f, title); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "report: %s\n", *reportFile)
	}
	if m.Causal != nil {
		if d := m.Causal.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "warning: span store truncated: %d spans dropped (-spans-max)\n", d)
		}
		if *spans {
			f, err := os.Create(*spansOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := causal.WritePerfetto(f, m.Causal, machine.MsgKindName); err != nil {
				f.Close()
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "spans: %d spans (digest %s) to %s; open in ui.perfetto.dev\n",
				m.Causal.Count(), m.Causal.Digest(), *spansOut)
		}
	}

	printReport(os.Stdout, m, app, sc, *proto, *procs, *contention, *traffic)

	if *perfFlag {
		fmt.Println()
		fmt.Println("wall-clock phase profile (host time, not simulated cycles)")
		fmt.Print(m.Perf.Snapshot().Table())
	}

	if *critPath > 0 {
		a := causal.Analyze(m.Causal)
		fmt.Println()
		fmt.Println("critical-path stall attribution (cycles by protocol cause)")
		a.WriteTable(os.Stdout)
		fmt.Println()
		fmt.Printf("top %d stall episodes\n", *critPath)
		a.WriteTop(os.Stdout, *critPath)
	}
}

// enableProgress schedules a self-rescheduling background engine event
// that prints a one-line heartbeat to stderr whenever at least every
// wall-clock seconds have passed since the last line: current simulated
// cycle, mean simulation speed so far, and — when the caller supplied an
// expected total via -progress-total — a naive ETA. Background events
// never keep the simulation alive or perturb regular-event timing, so
// the heartbeat is passive: results are bit-identical with and without
// it.
func enableProgress(m *lazyrc.Machine, every int, total uint64) {
	const pollCycles = 1 << 16 // wall-clock check cadence in simulated cycles
	interval := time.Duration(every) * time.Second
	start := time.Now()
	last := start
	var tick func()
	tick = func() {
		if now := time.Now(); now.Sub(last) >= interval {
			last = now
			cyc := m.Eng.Now()
			elapsed := now.Sub(start).Seconds()
			rate := float64(cyc) / elapsed
			line := fmt.Sprintf("progress: cycle %d, %.2f Mcycles/s", cyc, rate/1e6)
			if total > cyc && rate > 0 {
				eta := time.Duration(float64(total-cyc) / rate * float64(time.Second))
				line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
			}
			fmt.Fprintln(os.Stderr, line)
		}
		m.Eng.Background(m.Eng.Now()+pollCycles, tick)
	}
	m.Eng.Background(pollCycles, tick)
}

// compareProtocols runs the application once per requested protocol —
// fresh application instance and machine each time — and prints a
// side-by-side table. Execution time is also shown normalized to the
// "sc" run when sequential consistency is in the list (otherwise to the
// first protocol), matching the paper's presentation.
func compareProtocols(spec, appName string, sc lazyrc.Scale, procs int, future bool, seed uint64, verify bool) {
	protos, err := config.ParseProtocols(spec)
	if err != nil {
		log.Fatal(err)
	}
	type row struct {
		proto              string
		time               uint64
		cpu, rd, wr, sy    uint64
		missRate           float64
		msgs, payloadBytes uint64
	}
	rows := make([]row, 0, len(protos))
	for _, p := range protos {
		app, err := lazyrc.NewApp(appName, sc)
		if err != nil {
			log.Fatal(err)
		}
		cfg := lazyrc.DefaultConfig(procs)
		if future {
			cfg = lazyrc.FutureConfig(procs)
		}
		cfg.Seed = seed
		m, err := lazyrc.RunApp(cfg, p, app)
		if m == nil {
			log.Fatalf("%s: %v", p, err)
		}
		if err != nil && verify {
			log.Fatalf("%s: verification failed: %v", p, err)
		}
		r := row{proto: p, time: m.Stats.ExecutionTime(), missRate: m.Stats.MissRate()}
		r.cpu, r.rd, r.wr, r.sy = m.Stats.Aggregate()
		r.msgs, r.payloadBytes = m.Net.Stats()
		rows = append(rows, r)
	}
	base := rows[0].time
	for _, r := range rows {
		if r.proto == "sc" {
			base = r.time
			break
		}
	}
	fmt.Printf("application %s (%s), %d processors\n", appName, sc, procs)
	w := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "protocol\tcycles\tnorm\tcpu\tread\twrite\tsync\tmiss\tmsgs\tbytes\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%d\t%d\t%d\t%d\t%.2f%%\t%d\t%d\t\n",
			r.proto, r.time, float64(r.time)/float64(base),
			r.cpu, r.rd, r.wr, r.sy, 100*r.missRate, r.msgs, r.payloadBytes)
	}
	w.Flush()
}

// runOracle re-runs the same application, seed, and protocol with fault
// injection off and compares end states: the faulted run must have
// completed like the reference, and — for workloads whose result is
// independent of processor interleaving — produced a bit-identical
// final memory image. A divergence means a fault leaked through the
// reliable transport into application state.
func runOracle(cfg lazyrc.Config, proto, appName string, sc lazyrc.Scale, faulted *lazyrc.Machine) {
	ref, err := lazyrc.NewApp(appName, sc)
	if err != nil {
		log.Fatal(err)
	}
	cfg.FaultPlan = ""
	rm, err := lazyrc.RunApp(cfg, proto, ref)
	if rm == nil {
		log.Fatal(err)
	}
	if err != nil {
		log.Fatalf("oracle: fault-free reference failed verification: %v", err)
	}
	if !rm.Completed() {
		log.Fatal("oracle: fault-free reference did not complete")
	}
	if !faulted.Completed() {
		log.Fatal("oracle: faulted run did not complete; reference did")
	}
	if !apps.TimingDependent(appName) {
		if fd, rd := faulted.MemDigest(), rm.MemDigest(); fd != rd {
			log.Fatalf("oracle: final memory diverged: faulted %s, fault-free %s", fd, rd)
		}
		fmt.Fprintln(os.Stderr, "oracle: end state matches the fault-free run (completion + bit-identical memory)")
		return
	}
	fmt.Fprintf(os.Stderr, "oracle: end state matches the fault-free run (completion; %s folds timing into its result, memory not compared)\n", appName)
}

// replay re-executes a recorded counterexample schedule and reports
// whether it reproduced the recorded run exactly.
func replay(path string) {
	s, err := mc.LoadSchedule(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %s: test %s, protocol %s, %d choices", path, s.Test, s.Proto, len(s.Choices))
	if s.Mutation != "" {
		fmt.Printf(", mutation %s", s.Mutation)
	}
	fmt.Println()
	res, err := mc.Replay(s)
	if err != nil {
		if res != nil {
			fmt.Printf("outcome %q (recorded %q)\n", res.Outcome, s.Outcome)
		}
		log.Fatal(err)
	}
	fmt.Printf("reproduced: outcome %q, final state hash %#x, %d choice points\n",
		res.Outcome, res.FinalHash, res.Choices)
	for _, r := range s.Reasons {
		fmt.Printf("recorded violation: %s\n", r)
	}
	for _, v := range res.Violations {
		fmt.Printf("reproduced violation: %s\n", v)
	}
	if len(s.Allowed) > 0 {
		fmt.Printf("SC-allowed outcomes: %v\n", s.Allowed)
	}
}

func printReport(out io.Writer, m *lazyrc.Machine, app lazyrc.App, sc lazyrc.Scale, proto string, procs int, contention, traffic bool) {
	w := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintf(w, "application\t%s (%s)\n", app.Name(), sc)
	fmt.Fprintf(w, "protocol\t%s\n", proto)
	fmt.Fprintf(w, "processors\t%d\n", procs)
	fmt.Fprintf(w, "execution time\t%d cycles\n", m.Stats.ExecutionTime())
	cpu, rd, wr, sy := m.Stats.Aggregate()
	total := cpu + rd + wr + sy
	fmt.Fprintf(w, "aggregate cycles\t%d\n", total)
	if total > 0 {
		fmt.Fprintf(w, "  cpu\t%d (%.1f%%)\n", cpu, 100*float64(cpu)/float64(total))
		fmt.Fprintf(w, "  read stall\t%d (%.1f%%)\n", rd, 100*float64(rd)/float64(total))
		fmt.Fprintf(w, "  write stall\t%d (%.1f%%)\n", wr, 100*float64(wr)/float64(total))
		fmt.Fprintf(w, "  sync stall\t%d (%.1f%%)\n", sy, 100*float64(sy)/float64(total))
	}
	// Utilization and imbalance are derived from per-processor accounted
	// cycles and finish times. On a run that accounted no cycles (an
	// aborted run, a replay) both derivations are zero-valued noise, so
	// the lines are suppressed rather than printed as 0.0%.
	if total > 0 {
		var minU, maxU, sumU float64
		for i := range m.Stats.Procs {
			u := m.Stats.Procs[i].Utilization()
			if i == 0 || u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
			sumU += u
		}
		if n := len(m.Stats.Procs); n > 0 {
			fmt.Fprintf(w, "cpu utilization\t%.1f%% mean (%.1f%% min, %.1f%% max)\n",
				100*sumU/float64(n), 100*minU, 100*maxU)
		}
	}
	if imb := m.Stats.Imbalance(); imb > 0 {
		fmt.Fprintf(w, "load imbalance\t%.3f (max/mean finish time)\n", imb)
	}
	fmt.Fprintf(w, "miss rate\t%.3f%%\n", 100*m.Stats.MissRate())
	shares := m.Stats.MissShares()
	fmt.Fprintf(w, "  cold/true/false/evict/write\t%.1f%% / %.1f%% / %.1f%% / %.1f%% / %.1f%%\n",
		100*shares[lazyrc.Cold], 100*shares[lazyrc.TrueShare], 100*shares[lazyrc.FalseShare],
		100*shares[lazyrc.Eviction], 100*shares[lazyrc.WriteMiss])
	msgs, bytes := m.Net.Stats()
	fmt.Fprintf(w, "network\t%d messages, %d payload bytes\n", msgs, bytes)
	fmt.Fprintf(w, "shared footprint\t%d bytes\n", m.Footprint())
	if contention {
		w.Flush()
		fmt.Fprintln(out)
		fmt.Fprint(out, m.ContentionReport())
	}
	if traffic {
		w.Flush()
		fmt.Fprintln(out)
		fmt.Fprint(out, m.TrafficReport())
	}
}
