package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"lazyrc/internal/apps"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
)

// Every cell the benchmark simulates runs on the paper's 64-processor
// machine with configuration seed 1, the envelope of BENCH_baseline.json.
// Fault-free simulation does not read the seed; the workload seed only
// orders submissions and requests.
const (
	procs   = 64
	cfgSeed = 1
)

// refCell is the committed expectation for one (scale, config, app,
// protocol) cell.
type refCell struct {
	ExecCycles    uint64 `json:"exec_cycles"`
	Msgs          uint64 `json:"msgs"`
	Bytes         uint64 `json:"bytes"`
	MemDigest     string `json:"mem_digest"`
	MetricsDigest string `json:"metrics_digest"`
	SpanDigest    string `json:"span_digest"`
}

// reference is the committed per-cell reference file. Cells are keyed by
// "scale/config/app/protocol", not by runner fingerprint, so a change to
// the fingerprint encoding cannot silently orphan the reference.
type reference struct {
	Procs int                `json:"procs"`
	Seed  uint64             `json:"seed"`
	Cells map[string]refCell `json:"cells"`
}

func cellKey(scale apps.Scale, c [3]string) string {
	return scale.String() + "/" + c[0] + "/" + c[1] + "/" + c[2]
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	if r.Procs != procs || r.Seed != cfgSeed {
		return nil, fmt.Errorf("reference %s: envelope %d procs seed %d, want %d procs seed %d",
			path, r.Procs, r.Seed, procs, cfgSeed)
	}
	return &r, nil
}

// check compares an observed cell with the reference. The two digests
// are compared only when withDigests is set: bare lazyrc.RunApp runs
// record neither telemetry nor causal spans.
func (r *reference) check(key string, got refCell, withDigests bool) error {
	want, ok := r.Cells[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", key)
	}
	if !withDigests {
		got.MetricsDigest, got.SpanDigest = want.MetricsDigest, want.SpanDigest
	}
	if got != want {
		return fmt.Errorf("%s: got %+v, reference %+v", key, got, want)
	}
	return nil
}

func resultCell(res *runner.Result) refCell {
	return refCell{
		ExecCycles: res.ExecCycles, Msgs: res.Msgs, Bytes: res.Bytes,
		MemDigest: res.MemDigest, MetricsDigest: res.MetricsDigest, SpanDigest: res.SpanDigest,
	}
}

// checkResult folds a runner result's own failure modes and the
// reference comparison into one error.
func (r *reference) checkResult(scale apps.Scale, c [3]string, res *runner.Result) error {
	if err := res.Err(); err != nil {
		return fmt.Errorf("%s: %w", cellKey(scale, c), err)
	}
	return r.check(cellKey(scale, c), resultCell(res), true)
}

// newEvaluator returns an evaluator with the benchmark's envelope.
func newEvaluator(scale apps.Scale, rn *runner.Runner) *exp.Evaluator {
	e := exp.NewEvaluatorWith(scale, procs, rn)
	e.Seed = cfgSeed
	return e
}

func matrixCells() [][3]string { return exp.TargetCells(exp.MatrixTargets()) }
func fig4Cells() [][3]string   { return exp.TargetCells([]string{"fig4"}) }

// writeReference simulates every cell a workload can check — the full
// matrix at tiny and small, the Fig 4 cells at medium — through the
// runner and writes the reference file.
func writeReference(path string) error {
	ref := reference{Procs: procs, Seed: cfgSeed, Cells: map[string]refCell{}}
	sets := []struct {
		scale apps.Scale
		cells [][3]string
	}{
		{apps.Tiny, matrixCells()},
		{apps.Small, matrixCells()},
		{apps.Medium, fig4Cells()},
	}
	rn := runner.New(2, nil)
	for _, set := range sets {
		e := newEvaluator(set.scale, rn)
		jobs := make([]runner.Job, len(set.cells))
		for i, c := range set.cells {
			jobs[i] = e.Job(c[0], c[1], c[2])
		}
		for i, res := range rn.DoAll(context.Background(), jobs) {
			if err := res.Err(); err != nil {
				return fmt.Errorf("%s: %w", cellKey(set.scale, set.cells[i]), err)
			}
			ref.Cells[cellKey(set.scale, set.cells[i])] = resultCell(res)
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
