// Command paperbench regenerates the tables and figures of the paper's
// evaluation section: the system-parameter table (Table 1), the
// miss-classification and miss-rate tables (Tables 2 and 3, printed as
// "Figure 2/3" in the text), the normalized-execution-time and
// overhead-breakdown figures on the default machine (Figures 4-7) and the
// future machine (Figures 8-9), the §4.3 sensitivity sweeps, and the
// §4.2 mp3d quality-of-solution check.
//
// The evaluation matrix executes through internal/runner: simulations
// run concurrently on -j workers, results are deduplicated by content
// fingerprint (figures sharing a cell simulate it once), an optional
// -cache directory carries results across invocations (a warm rerun
// performs zero simulations; it is the same segment store lrcsimd -store
// uses, so either tool can warm it for the other), and -baseline gates
// the fresh report against a committed reference. The rendered output is
// bit-identical for any -j.
//
// Usage:
//
//	paperbench [-scale small] [-procs 64] [-j N] [-cache results/]
//	           [-baseline BENCH_baseline.json -tol 0] [targets...]
//
// Targets: table1 table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 tardis
// sweep mp3dquality all (default: all); extensions: ablate, scaling,
// dsm, chaos (the lossy-interconnect soak: every app × protocol under
// message loss and link outages, gated on the end-state equivalence
// oracle). The tardis target compares the timestamp-coherence protocols
// against the invalidation protocols; -protocols narrows the protocol
// set it and the chaos soak cover.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"lazyrc"
	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	var (
		scaleFlag  = flag.String("scale", "small", "input scale: tiny, small, medium, paper")
		procs      = flag.Int("procs", 64, "number of processors")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		jsonOut    = flag.String("json", "", "also write a machine-readable report to this file")
		seed       = flag.Uint64("seed", 1, "base random seed stamped into every run's configuration; a report plus its seed fully determines a replay")
		workers    = flag.Int("j", runtime.GOMAXPROCS(0), "simulation worker count; results are bit-identical for any value")
		cacheDir   = flag.String("cache", "", "result store directory (the lrcsimd -store format); fingerprint-identical runs are served from it instead of re-simulating")
		baseline   = flag.String("baseline", "", "regression-gate baseline report (JSON); out-of-tolerance drift exits non-zero")
		tol        = flag.Float64("tol", 0, "gate tolerance on cycle counts and traffic, in percent of the baseline value")
		writeBase  = flag.String("write-baseline", "", "write the canonical (provenance-free) report to this file, for committing as the gate baseline")
		reportOut  = flag.String("report", "", "write a self-contained HTML report of the evaluation to this file")
		critPath   = flag.Bool("critical-path", false, "also print the per-app per-protocol critical-path stall attribution table (runs span-traced simulations outside the result cache)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		remote     = flag.String("remote", "", "submit the evaluation to a running lrcsimd daemon at this base URL (e.g. http://127.0.0.1:7077) instead of simulating locally; matrix targets only, -j and -cache are the daemon's concern")
		protoFlag  = flag.String("protocols", "all", "comma-separated protocol subset for the tardis target and the chaos soak (\"all\" = every registered protocol)")
		perfTrend  = flag.String("perf-trend", "PERF_trend.json", "committed cycles/sec trend file for the -perf-write / -perf-gate pass")
		perfWrite  = flag.Bool("perf-write", false, "measure host throughput for every (app, protocol) cell serially and append the result as a new entry in -perf-trend")
		perfGate   = flag.Bool("perf-gate", false, "measure host throughput and fail on cells slower than the latest -perf-trend entry beyond -perf-tol")
		perfTol    = flag.Float64("perf-tol", 50, "perf gate tolerance on cycles/sec regressions, in percent of the baseline; wall-clock timings wobble with host load, so the default is deliberately generous — tighten it on a quiet, pinned machine")
		perfReport = flag.String("perf-report", "", "write a self-contained HTML performance report (phase breakdown + trend) to this file")
		perfReps   = flag.Int("perf-reps", 3, "executions per cell in the perf pass; the fastest is recorded (best-of-N damps host noise)")
	)
	flag.Parse()

	protoList, err := config.ParseProtocols(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}

	stopProfiles := startProfiles(*cpuprofile, *memprofile)

	scale, err := lazyrc.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	targets := flag.Args()
	perfO := perfOpts{
		trendPath: *perfTrend, write: *perfWrite, gate: *perfGate,
		tolPct: *perfTol, report: *perfReport, reps: *perfReps,
		protos: protoList, quiet: *quiet,
	}
	if len(targets) == 0 {
		if perfO.active() {
			// A bare perf invocation measures throughput only; ask for
			// explicit targets (or "all") to also render the figures.
			targets = nil
		} else {
			targets = []string{"all"}
		}
	}
	if *remote != "" {
		code := runRemote(remoteOpts{
			base: *remote, targets: targets, scale: *scaleFlag,
			procs: *procs, seed: *seed, quiet: *quiet,
			jsonOut: *jsonOut, reportOut: *reportOut,
			baseline: *baseline, tol: *tol,
		})
		stopProfiles()
		os.Exit(code)
	}
	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	all := want["all"]

	ctx := context.Background()

	// The store is held as the concrete type for Close, but the runner
	// takes the interface: pass untyped nil when no cache was requested so
	// the runner's store==nil fast path applies (a typed-nil *store.Store
	// inside the interface would not compare equal to nil).
	var cache *store.Store
	var rstore runner.ResultStore
	if *cacheDir != "" {
		cache, err = store.Open(*cacheDir)
		if err != nil {
			log.Fatalf("-cache: %v (older versions wrote a JSONL file here; pass a directory)", err)
		}
		if n := cache.Recovered(); n > 0 && !*quiet {
			fmt.Fprintf(os.Stderr, "cache: skipped %d corrupt line(s) in %s; affected runs will re-simulate\n", n, *cacheDir)
		}
		rstore = cache
	}
	rn := runner.New(*workers, rstore)
	if !*quiet {
		rn.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	e := exp.NewEvaluatorWith(scale, *procs, rn)
	e.Seed = *seed

	// The perf pass runs first, before any worker-pool fan-out, so its
	// serial timings are not polluted by concurrent simulations.
	perfCode := 0
	if perfO.active() {
		perfCode = runPerfPass(e, scale, *procs, perfO)
	}

	start := time.Now()
	emit := func(name, body string) {
		fmt.Println(body)
	}

	// Fan the whole requested matrix out to the worker pool before any
	// rendering: rendering then reads memoized cells in table order, so
	// the output is deterministic while the simulations were not. A
	// narrowed -protocols drops only the timestamp-protocol cells — the
	// invalidation-protocol cells are shared with the paper figures and
	// would be simulated anyway.
	protoSet := map[string]bool{}
	for _, p := range protoList {
		protoSet[p] = true
	}
	cells := exp.TargetCells(targets)
	kept := cells[:0]
	for _, c := range cells {
		if (c[2] == "tardis" || c[2] == "tardis2") && !protoSet[c[2]] {
			continue
		}
		kept = append(kept, c)
	}
	e.Prefetch(kept)

	if all || want["table1"] {
		emit("table1", exp.Table1(config.Default(*procs)))
	}
	if all || want["table2"] {
		emit("table2", exp.Table2(e))
	}
	if all || want["table3"] {
		emit("table3", exp.Table3(e))
	}
	if all || want["fig4"] {
		emit("fig4", exp.Fig4(e))
	}
	if all || want["fig5"] {
		emit("fig5", exp.Fig5(e))
	}
	if all || want["fig6"] {
		emit("fig6", exp.Fig6(e))
	}
	if all || want["fig7"] {
		emit("fig7", exp.Fig7(e))
	}
	if all || want["fig8"] {
		emit("fig8", exp.Fig8(e))
	}
	if all || want["fig9"] {
		emit("fig9", exp.Fig9(e))
	}
	if all || want["tardis"] {
		emit("tardis", exp.TardisTable(e, protoList))
	}
	if all || want["sweep"] {
		for _, sw := range exp.Sweeps() {
			emit("sweep", exp.RunSweep(ctx, rn, scale, *procs, sw))
		}
	}
	if all || want["mp3dquality"] {
		emit("mp3dquality", exp.Mp3dQuality(scale, *procs))
	}
	if want["ablate"] {
		for _, ab := range exp.Ablations() {
			emit("ablate", exp.RunAblation(ctx, rn, scale, *procs, ab))
		}
	}
	if want["dsm"] {
		emit("dsm", exp.LazierUnderSoftwareCoherence(ctx, rn, scale, *procs, "locusroute"))
	}
	if want["scaling"] {
		for _, app := range []string{"mp3d", "blu", "gauss"} {
			emit("scaling", exp.RunScaling(ctx, rn, scale, app, exp.ScalingCounts))
		}
	}
	chaosFailed := false
	if want["chaos"] {
		body, err := exp.RunChaos(ctx, rn, scale, *procs, *seed, exp.AppOrder,
			protoList, nil)
		emit("chaos", body)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			chaosFailed = true
		}
	}
	if *critPath {
		emit("critical-path", exp.CriticalPath(scale, *procs, *seed, nil))
	}

	exitCode := 0
	if chaosFailed || perfCode != 0 {
		exitCode = 1
	}
	if err := e.VerifyAll(); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: a run failed verification: %v\n", err)
		exitCode = 1
	}
	report := e.Report()
	if *jsonOut != "" {
		writeReport(*jsonOut, report)
	}
	if *reportOut != "" {
		writeHTMLReport(*reportOut, report)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "HTML report written to %s\n", *reportOut)
		}
	}
	if *writeBase != "" {
		writeReport(*writeBase, report.Stable())
		if !*quiet {
			fmt.Fprintf(os.Stderr, "baseline written to %s (%d runs)\n", *writeBase, len(report.Runs))
		}
	}
	if *baseline != "" {
		base, err := exp.LoadReport(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		if viols := exp.Gate(base, report, *tol); len(viols) > 0 {
			for _, v := range viols {
				fmt.Fprintf(os.Stderr, "gate: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "gate: FAILED against %s: %d violation(s) at tolerance %.3f%%\n",
				*baseline, len(viols), *tol)
			exitCode = 1
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "gate: ok against %s (%d runs, tolerance %.3f%%)\n",
				*baseline, len(base.Runs), *tol)
		}
	}
	if cache != nil {
		if err := cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: cache: %v\n", err)
			exitCode = 1
		}
	}
	if !*quiet {
		m := rn.Meta()
		fmt.Fprintf(os.Stderr, "total wall-clock: %.1fs (scale %s, %d procs, %d workers; %d simulated, %d cache hits, %d failed)\n",
			time.Since(start).Seconds(), apps.Scale(scale), *procs, m.Workers,
			m.Simulated, m.CacheHits, m.FailedJobs)
	}
	stopProfiles()
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// writeReport writes a report as indented JSON, fataling on any error
// (paperbench output files are the whole point of the invocation).
func writeReport(path string, r exp.Report) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.WriteReportJSON(f, r); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// writeHTMLReport writes the evaluation as a self-contained HTML page.
func writeHTMLReport(path string, r exp.Report) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.WriteHTML(f, r); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// startProfiles begins CPU profiling and arranges heap profiling; the
// returned stop function flushes both. Kept out of defer chains so the
// explicit os.Exit paths still flush profiles.
func startProfiles(cpu, mem string) func() {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
	}
}
