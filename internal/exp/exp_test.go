package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

func tinyEvaluator() *Evaluator { return NewEvaluator(apps.Tiny, 8) }

func TestEvaluatorMemoizes(t *testing.T) {
	e := tinyEvaluator()
	r1 := e.Get("default", "gauss", "sc")
	r2 := e.Get("default", "gauss", "sc")
	if r1 != r2 {
		t.Fatal("identical cell re-ran instead of memoizing")
	}
	if r1.ExecCycles == 0 {
		t.Fatal("zero execution time")
	}
	if len(e.cells()) != 1 {
		t.Fatalf("runs = %d, want 1", len(e.cells()))
	}
	if err := e.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedBaselineIsOne(t *testing.T) {
	e := tinyEvaluator()
	if got := e.Normalized("default", "fft", "sc"); got != 1.0 {
		t.Fatalf("sc normalized to itself = %v, want 1", got)
	}
	lrc := e.Normalized("default", "fft", "lrc")
	if lrc <= 0 || lrc > 1.5 {
		t.Fatalf("lrc normalized time = %v, implausible", lrc)
	}
}

func TestOverheadSharesSumNearTotal(t *testing.T) {
	e := tinyEvaluator()
	cpu, rd, wr, sy := e.OverheadShares("default", "gauss", "sc")
	total := cpu + rd + wr + sy
	// SC's own shares must sum to exactly 1 (they are its total).
	if total < 0.999 || total > 1.001 {
		t.Fatalf("sc shares sum to %v, want 1.0", total)
	}
}

func TestCacheForScale(t *testing.T) {
	if CacheForScale(apps.Paper) != 128<<10 {
		t.Fatal("paper scale must use the Table 1 cache")
	}
	if CacheForScale(apps.Tiny) >= CacheForScale(apps.Small) ||
		CacheForScale(apps.Small) >= CacheForScale(apps.Medium) {
		t.Fatal("cache sizes must grow with scale")
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(config.Default(64))
	for _, want := range []string{"128 bytes", "128 Kbytes", "20 cycles", "25 cycles", "15 cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTableAndFigureRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 8-proc tiny matrix")
	}
	e := tinyEvaluator()
	out := Table2(e) + Table3(e) + Fig4(e) + Fig5(e) + Fig6(e) + Fig7(e)
	for _, app := range AppOrder {
		if !strings.Contains(out, app) {
			t.Errorf("rendered tables missing %s", app)
		}
	}
	if err := e.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepsAreWellFormed(t *testing.T) {
	sweeps := Sweeps()
	if len(sweeps) != 3 {
		t.Fatalf("sweeps = %d, want 3 (latency, bandwidth, line size)", len(sweeps))
	}
	for _, sw := range sweeps {
		if len(sw.Points) < 2 {
			t.Errorf("%s: fewer than 2 points", sw.Name)
		}
		for _, v := range sw.Points {
			cfg := config.Default(4)
			sw.Mut(&cfg, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s point %d produces invalid config: %v", sw.Name, v, err)
			}
			if sw.Label(v) == "" {
				t.Errorf("%s point %d has empty label", sw.Name, v)
			}
		}
	}
}

func TestAblationsAreWellFormed(t *testing.T) {
	for _, ab := range Ablations() {
		for _, v := range ab.Points {
			cfg := config.Default(4)
			ab.Mut(&cfg, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s point %d produces invalid config: %v", ab.Name, v, err)
			}
		}
	}
}

func TestRunAblationExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var ab Ablation
	for _, a := range Ablations() {
		if strings.Contains(a.Name, "acquire-time") { // two cheap points
			ab = a
		}
	}
	out := RunAblation(context.Background(), runner.New(2, nil), apps.Tiny, 4, ab)
	if !strings.Contains(out, "overlapped") || !strings.Contains(out, "after grant") {
		t.Fatalf("ablation output malformed:\n%s", out)
	}
}

func TestMp3dQualityReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	out := Mp3dQuality(apps.Tiny, 4)
	if !strings.Contains(out, "X") || !strings.Contains(out, "divergence") {
		t.Fatalf("quality report malformed:\n%s", out)
	}
}

func TestFutureFiguresAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	e := NewEvaluator(apps.Tiny, 4)
	// Restrict to one app to keep the future matrix cheap: render the
	// future figures through the shared helpers directly.
	outT := figTime(e, "future", "future time", []string{"erc", "lrc"})
	outO := figOverhead(e, "future", "future overhead", []string{"lrc"})
	if !strings.Contains(outT, "mp3d") || !strings.Contains(outO, "mp3d") {
		t.Fatal("future renders incomplete")
	}
	var buf strings.Builder
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.Procs != 4 || len(rep.Runs) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	for _, r := range rep.Runs {
		if !r.Verified {
			t.Fatalf("unverified run in report: %+v", r)
		}
		if r.Protocol == "sc" && r.Normalized != 1.0 {
			t.Fatalf("sc normalized = %v", r.Normalized)
		}
	}
	if !strings.Contains(buf.String(), "\"miss_rate_pct\"") {
		t.Fatal("JSON missing miss rate field")
	}
}

func TestRunSweepExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sw := Sweep{
		Name:   "line size (test)",
		Mut:    func(c *config.Config, v int) { c.LineSize = v },
		Points: []int{64, 128},
		Label:  func(v int) string { return "x" },
	}
	out := RunSweep(context.Background(), runner.New(4, nil), apps.Tiny, 4, sw)
	if !strings.Contains(out, "mp3d") || !strings.Contains(out, "gauss") {
		t.Fatalf("sweep output malformed:\n%s", out)
	}
}

func TestBarRendering(t *testing.T) {
	if got := len(bar(0.5, 1.0, 10)); got != 10 {
		t.Fatalf("bar width = %d", got)
	}
	if b := bar(2.0, 1.0, 10); strings.Contains(b, " ") {
		t.Fatalf("overflow bar should be full: %q", b)
	}
	if b := bar(0, 0, 4); len(b) != 4 {
		t.Fatalf("zero-max bar: %q", b)
	}
}

func TestRunScalingExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	out := RunScaling(context.Background(), runner.New(2, nil), apps.Tiny, "fft", []int{2, 4})
	if !strings.Contains(out, "ratio") || !strings.Contains(out, "fft") {
		t.Fatalf("scaling output malformed:\n%s", out)
	}
}

func TestLazierUnderSoftwareCoherence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	out := LazierUnderSoftwareCoherence(context.Background(), runner.New(4, nil), apps.Tiny, 8, "locusroute")
	if !strings.Contains(out, "hardware protocol processor") ||
		!strings.Contains(out, "software coherence") {
		t.Fatalf("DSM contrast output malformed:\n%s", out)
	}
}

func TestTargetCells(t *testing.T) {
	all := TargetCells([]string{"all"})
	if len(all) == 0 {
		t.Fatal("no cells for 'all'")
	}
	seen := map[[3]string]bool{}
	for _, c := range all {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
	}
	// Full matrix: 7 apps × (6 protocols on default + 4 on future).
	if want := len(AppOrder) * 10; len(all) != want {
		t.Fatalf("all target cells = %d, want %d", len(all), want)
	}
	// fig4 needs the SC baseline even though it only plots erc and lrc.
	fig4 := TargetCells([]string{"fig4"})
	var hasSC bool
	for _, c := range fig4 {
		if c[2] == "sc" {
			hasSC = true
		}
	}
	if !hasSC {
		t.Fatal("fig4 cells omit the sc normalization baseline")
	}
	if got := TargetCells([]string{"sweep", "mp3dquality"}); len(got) != 0 {
		t.Fatalf("non-matrix targets expanded to %d cells, want 0", len(got))
	}
}

// reportBytes renders a report for byte comparison across worker counts:
// runner provenance (worker count, wall time) is dropped, every result
// field is kept.
func reportBytes(t *testing.T, e *Evaluator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, e.Report().Stable()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelSerialDeterminism is the runner's core contract: a report
// produced on 8 workers is byte-identical to one produced serially, and
// so is every rendered table and figure.
func TestParallelSerialDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny matrix twice")
	}
	targets := []string{"table2", "table3", "fig4", "fig6", "fig8"}
	render := func(e *Evaluator) string {
		return Table2(e) + Table3(e) + Fig4(e) + Fig6(e) + Fig8(e)
	}

	serial := NewEvaluatorWith(apps.Tiny, 4, runner.New(1, nil))
	serial.Prefetch(TargetCells(targets))
	serialOut := render(serial)

	parallel := NewEvaluatorWith(apps.Tiny, 4, runner.New(8, nil))
	parallel.Prefetch(TargetCells(targets))
	parallelOut := render(parallel)

	if serialOut != parallelOut {
		t.Fatal("rendered tables differ between -j 1 and -j 8")
	}
	if !bytes.Equal(reportBytes(t, serial), reportBytes(t, parallel)) {
		t.Fatal("JSON reports differ between -j 1 and -j 8")
	}
	if m := parallel.R.Meta(); m.Simulated != len(TargetCells(targets)) {
		t.Fatalf("parallel runner simulated %d jobs, want %d (dedup broken?)",
			m.Simulated, len(TargetCells(targets)))
	}
}

// TestEvaluatorSharedStore drives two evaluators through one store: the
// second must simulate nothing and produce the identical report.
func TestEvaluatorSharedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cells := TargetCells([]string{"table3"})

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEvaluatorWith(apps.Tiny, 4, runner.New(4, cold))
	e1.Prefetch(cells)
	rep1 := reportBytes(t, e1)
	if m := e1.R.Meta(); m.Simulated == 0 || m.CacheHits != 0 {
		t.Fatalf("cold run meta: %+v", m)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	e2 := NewEvaluatorWith(apps.Tiny, 4, runner.New(4, warm))
	e2.Prefetch(cells)
	rep2 := reportBytes(t, e2)
	if m := e2.R.Meta(); m.Simulated != 0 || m.CacheHits != len(cells) {
		t.Fatalf("warm run simulated %d (want 0), hits %d (want %d)",
			m.Simulated, m.CacheHits, len(cells))
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("cache-served report differs from the simulated one")
	}
}
