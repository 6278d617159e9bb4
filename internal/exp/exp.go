// Package exp drives the paper's evaluation: it runs the (application ×
// protocol × machine-configuration) matrix, memoizing runs shared between
// tables and figures, and renders each table and figure of the paper as
// text. Absolute cycle counts differ from the 1994 testbed, but the
// comparisons the paper makes — who wins, by what factor, where the
// breakdown shifts — are reproduced in shape.
package exp

import (
	"context"
	"fmt"
	"sort"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
)

// AppOrder lists the applications in the paper's table order.
var AppOrder = []string{"barnes-hut", "blu", "cholesky", "fft", "gauss", "locusroute", "mp3d"}

// Evaluator runs and memoizes experiments at one scale and machine size.
// Execution is delegated to a runner.Runner, which deduplicates cells
// shared between tables and figures, executes batches on a worker pool,
// and (when given a store) reuses results across processes.
type Evaluator struct {
	Scale apps.Scale
	Procs int
	// Progress, when non-nil, receives a line per fresh run. It is
	// forwarded to the runner the evaluator creates; when the evaluator
	// is built with NewEvaluatorWith, set Progress on the runner instead.
	Progress func(string)
	// Seed is stamped into every run's configuration so seed-dependent
	// subsystems (fault injection) replay identically across evaluations.
	Seed uint64
	// R executes the evaluator's jobs. Nil means a serial runner with no
	// store is created on first use.
	R *runner.Runner
	// Ctx, when non-nil, bounds every job this evaluator submits: the
	// lrcsimd daemon sets it to the sweep's submission context so a
	// cancelled sweep stops simulating promptly. Nil means Background.
	Ctx context.Context

	// runs memoizes the runner's results, keyed "config/app/proto".
	runs map[string]*runner.Result
}

// NewEvaluator returns an evaluator for the given scale and machine size
// (the paper evaluates 64 processors). Runs execute serially; use
// NewEvaluatorWith to share a worker pool and result cache.
func NewEvaluator(scale apps.Scale, procs int) *Evaluator {
	return NewEvaluatorWith(scale, procs, nil)
}

// NewEvaluatorWith returns an evaluator that executes through the given
// runner (nil behaves like NewEvaluator).
func NewEvaluatorWith(scale apps.Scale, procs int, r *runner.Runner) *Evaluator {
	return &Evaluator{Scale: scale, Procs: procs, R: r, runs: make(map[string]*runner.Result)}
}

// engine returns the evaluator's runner, creating a serial one on first
// use so the zero configuration keeps its historical behaviour.
func (e *Evaluator) engine() *runner.Runner {
	if e.R == nil {
		e.R = runner.New(1, nil)
		e.R.Progress = e.Progress
	}
	return e.R
}

// ctx returns the evaluator's submission context.
func (e *Evaluator) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// configFor materializes a named machine configuration. The cache size
// scales with the input scale, following the paper's own methodology
// (§3): inputs were shrunk to keep simulation tractable and caches were
// shrunk with them "in order to capture the effect of capacity and
// conflict misses" — with full-size caches the data fits and the eviction
// column of Table 2 (62.9% for barnes-hut!) vanishes.
func (e *Evaluator) configFor(name string) config.Config {
	c, err := config.Preset(name, e.Procs)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	c.CacheSize = CacheForScale(e.Scale)
	c.Seed = e.Seed
	return c
}

// CacheForScale returns the per-processor cache size used at each input
// scale, preserving the paper's footprint-to-cache ratio.
func CacheForScale(s apps.Scale) int {
	switch s {
	case apps.Tiny:
		return 2 << 10
	case apps.Small:
		return 8 << 10
	case apps.Medium:
		return 32 << 10
	default:
		return 128 << 10 // the paper's configuration
	}
}

// Job materializes the runner job for one experiment cell.
func (e *Evaluator) Job(cfgName, appName, proto string) runner.Job {
	return runner.Job{App: appName, Scale: e.Scale, Proto: proto, Cfg: e.configFor(cfgName)}
}

// Get runs (or recalls) one experiment cell. The runner deduplicates by
// content fingerprint, so a cell already simulated by Prefetch — or by a
// previous process sharing the result store — is served without
// re-simulation. A crashed run surfaces as a result whose Err carries
// the failure, not as a panic of the whole evaluation.
func (e *Evaluator) Get(cfgName, appName, proto string) *runner.Result {
	key := cfgName + "/" + appName + "/" + proto
	if r, ok := e.runs[key]; ok {
		return r
	}
	r := e.engine().Do(e.ctx(), e.Job(cfgName, appName, proto))
	e.runs[key] = r
	return r
}

// Prefetch simulates the given (config, app, protocol) cells through the
// runner's worker pool. Rendering afterwards reads every cell from the
// in-process memo, so table and figure order stays deterministic while
// the simulations themselves ran concurrently.
func (e *Evaluator) Prefetch(cells [][3]string) {
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		jobs[i] = e.Job(c[0], c[1], c[2])
	}
	e.engine().DoAll(e.ctx(), jobs)
}

// cells returns the keys of all memoized cells, sorted (for reports).
func (e *Evaluator) cells() []string {
	keys := make([]string, 0, len(e.runs))
	for k := range e.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Normalized returns the run's execution time normalized to the
// sequentially consistent run of the same application and configuration
// — the unit line of the paper's figures.
func (e *Evaluator) Normalized(cfgName, appName, proto string) float64 {
	sc := e.Get(cfgName, appName, "sc")
	r := e.Get(cfgName, appName, proto)
	if sc.ExecCycles == 0 {
		return 0
	}
	return float64(r.ExecCycles) / float64(sc.ExecCycles)
}

// OverheadShares returns the run's aggregate cpu/read/write/sync cycles
// as fractions of the SC run's total aggregate cycles (the presentation
// of Figures 5, 7 and 9).
func (e *Evaluator) OverheadShares(cfgName, appName, proto string) (cpu, read, write, sync float64) {
	sc := e.Get(cfgName, appName, "sc")
	total := float64(sc.CPUCycles + sc.ReadCycles + sc.WriteCycles + sc.SyncCycles)
	if total == 0 {
		return
	}
	r := e.Get(cfgName, appName, proto)
	return float64(r.CPUCycles) / total, float64(r.ReadCycles) / total,
		float64(r.WriteCycles) / total, float64(r.SyncCycles) / total
}

// VerifyAll re-checks that every memoized run verified; the first failure
// in key order is returned.
func (e *Evaluator) VerifyAll() error {
	for _, k := range e.cells() {
		if err := e.runs[k].Err(); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
	}
	return nil
}
