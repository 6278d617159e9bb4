// Command lrcbench is the repository's benchmark. It runs one named
// workload against the simulator's layers from outside — timing calls
// into their public functions — checks every output against a committed
// reference, prints every metric by name with its unit, and ends with a
// one-line JSON result. A separate traced mode (-trace 1) records spans
// around each layer call and reports the per-layer metrics instead.
//
// Run it from the repository root:
//
//	bash lrcbench/run.sh --workload matrix-small --seed 1 --seconds 15 --trace 0
//
// See lrcbench/README.md for the workloads, the metrics and the map
// from each layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lazyrc/internal/apps"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, identical for every
// workload; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"sim_mcycles_per_cpu_s", "Mcycles/s"},
	{"peak_rss_mb", "MB"},
	{"restart_ms_p50", "ms"},
	{"restart_ms_p90", "ms"},
	{"fetch_ms_p50", "ms"},
	{"fetch_ms_p90", "ms"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not call reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.heap_ns", "ns"},
	{"sim.heap_allocs", "count"},
	{"sim.handoff_ns", "ns"},
	{"mesh.msgs", "count"},
	{"mesh.bytes", "B"},
	{"mesh.send_ns", "ns"},
	{"mesh.send_allocs", "count"},
	{"mesh.send_bytes", "B"},
	{"cache.miss_rate", "ratio"},
	{"cache.share.cold", "ratio"},
	{"cache.share.true", "ratio"},
	{"cache.share.false", "ratio"},
	{"cache.share.eviction", "ratio"},
	{"cache.share.write", "ratio"},
	{"perf.share.dispatch", "ratio"},
	{"perf.share.mesh", "ratio"},
	{"perf.share.protocol", "ratio"},
	{"perf.share.directory", "ratio"},
	{"perf.share.membus", "ratio"},
	{"perf.share.telemetry", "ratio"},
	{"perf.share.causal", "ratio"},
	{"machine.new_ms", "ms"},
	{"apps.setup_ms", "ms"},
	{"machine.run_ms", "ms"},
	{"apps.verify_ms", "ms"},
	{"telemetry.tax_pct", "%"},
	{"causal.tax_pct", "%"},
	{"perf.tax_pct", "%"},
	{"runner.tax_x", "x"},
	{"runner.wait_ms", "ms"},
	{"runner.busy_frac", "ratio"},
	{"runner.pool_tail_s", "s"},
	{"runner.dedup_ratio", "ratio"},
	{"alloc.mb_per_cell", "MB"},
	{"alloc.objs_per_cell", "count"},
	{"store.open_ms", "ms"},
	{"store.get_us", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.put_us", "us"},
	{"exp.render_ms", "ms"},
	{"api.boot_ms", "ms"},
	{"api.fetch_ms_p99.report_json", "ms"},
	{"api.fetch_ms_p99.report_html", "ms"},
	{"api.fetch_ms_p99.submit", "ms"},
	{"api.fetch_ms_p99.metrics", "ms"},
	{"api.scrape_ms", "ms"},
	{"bus.events", "count"},
	{"bus.dropped", "count"},
	{"os.sys_ms", "ms"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"self_ms.bench", "ms"},
	{"self_ms.lazyrc", "ms"},
	{"self_ms.apps", "ms"},
	{"self_ms.machine", "ms"},
	{"self_ms.runner", "ms"},
	{"self_ms.exp", "ms"},
	{"self_ms.store", "ms"},
	{"self_ms.api", "ms"},
}

// workload is one named benchmark input.
type workload struct {
	scale  apps.Scale
	setups int // set-up repetitions; setup_s is their median
	run    func(b *bench) error
}

var workloads = map[string]workload{
	"matrix-small": {apps.Small, 5, runMatrix},
	"core-medium":  {apps.Medium, 5, runCore},
	"service-warm": {apps.Tiny, 3, runService},
}

// options are the settings of one run: its flags and its workload's
// scale and set-up count.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    apps.Scale
	setups   int
	refPath  string
	outDir   string
}

// bench is one run's state: its settings, the reference, the tracer
// (nil when untraced), and the accumulated metrics and outcome counts.
type bench struct {
	opt     options
	ref     *reference
	tr      *tracer
	rng     *rand.Rand
	metrics map[string]float64
	// attempted counts operations checked (cells, requests, restarts);
	// failed counts those that failed or disagreed with the reference.
	attempted, failed int
	// units describes what one operation is, for the provenance line.
	units string
	// hostProbeNS are the host probe's times in this run (hostprobe.go).
	hostProbeNS []float64
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// record counts one operation and, if err is non-nil, its failure.
func (b *bench) record(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 20 {
			fmt.Fprintf(os.Stderr, "lrcbench: FAIL %v\n", err)
		}
	}
}

// shuffled returns a seed-ordered copy of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// window reports whether another unit of work that took last may start
// at elapsed and still end inside the run's measuring window. The first
// unit always runs.
func (b *bench) window(elapsed, last time.Duration, done int) bool {
	if done == 0 {
		return true
	}
	return (elapsed + last).Seconds() <= b.opt.seconds
}

func main() {
	var opt options
	var (
		seed     = flag.Uint64("seed", 1, "workload seed: orders cell submissions and requests")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		scale    = flag.String("scale", "", "override the workload's input scale (tiny keeps the smoke test fast)")
		writeRef = flag.String("write-ref", "", "simulate every reference cell and write the reference file here, then exit")
	)
	flag.StringVar(&opt.workload, "workload", "", "workload name: matrix-small, core-medium or service-warm")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measuring window in seconds; a run does as many whole units of work as fit, at least one")
	flag.StringVar(&opt.refPath, "ref", filepath.Join("lrcbench", "reference.json"), "committed per-cell reference")
	flag.StringVar(&opt.outDir, "out", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintf(os.Stderr, "lrcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[opt.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "lrcbench: unknown workload %q\n", opt.workload)
		os.Exit(2)
	}
	opt.seed, opt.trace, opt.scale, opt.setups = *seed, *trace == 1, w.scale, w.setups
	if *scale != "" {
		s, err := apps.ParseScale(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrcbench: %v\n", err)
			os.Exit(2)
		}
		opt.scale = s
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "lrcbench: -seconds must be positive")
		os.Exit(2)
	}
	ref, err := loadReference(opt.refPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrcbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		opt:     opt,
		ref:     ref,
		rng:     rand.New(rand.NewPCG(opt.seed, 0x6c7263)),
		metrics: map[string]float64{},
	}
	if opt.trace {
		b.tr = newTracer()
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "lrcbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	os.Exit(b.report())
}

// report prints provenance, every metric with its unit, and the final
// JSON line; it returns the exit code.
func (b *bench) report() int {
	b.set("peak_rss_mb", peakRSSMB())
	defs := endToEnd
	if b.opt.trace {
		defs = perLayer
		b.set("trace.spans", float64(b.tr.count()))
		self := b.tr.selfTime()
		for _, d := range perLayer {
			if layer, ok := strings.CutPrefix(d.name, "self_ms."); ok {
				b.set(d.name, ms(self[layer]))
			}
		}
		name := fmt.Sprintf("spans-%s-seed%d.json", b.opt.workload, b.opt.seed)
		if path, err := b.tr.write(b.opt.outDir, name); err != nil {
			b.record(err)
		} else {
			fmt.Printf("spans: %d written to %s\n", b.tr.count(), path)
		}
		if x, ok := b.metrics["runner.tax_x"]; ok && x > 0 {
			fmt.Printf("runner tax: %.2fx bare on the ladder cells (ROADMAP target 1.3x; report only, not a gate)\n", x)
		}
	}
	fmt.Printf("provenance: workload %s, seed %d, scale %s, GOMAXPROCS %d, nproc %d, %s, %d %s\n",
		b.opt.workload, b.opt.seed, b.opt.scale, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), b.attempted, b.units)
	if n := len(b.hostProbeNS); n > 0 {
		p := median(b.hostProbeNS)
		fmt.Printf("host speed: probe median %.1f us over %d probes against the reference %v: timings scaled by about %.3f\n",
			p/1e3, n, refProbe, float64(refProbe)/p)
	}
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", errRate, b.failed, b.attempted)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		v := b.metrics[d.name]
		out.Metrics[d.name] = metric{v, d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrcbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
