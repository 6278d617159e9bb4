package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test re-executes its own binary as the benchmark command, so
// it exercises main exactly as run.sh does, flags and exit codes
// included.
func TestMain(m *testing.M) {
	if os.Getenv("LRCBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the benchmark at tiny scale and returns its standard
// output, the parsed last line, and whether it exited 0.
func runBench(t *testing.T, args ...string) (string, runResult, bool) {
	t.Helper()
	args = append([]string{"--scale", "tiny", "--seconds", "1", "--ref", "reference.json", "--out", t.TempDir()}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LRCBENCH_RUN_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	out := strings.TrimSpace(stdout.String())
	var res runResult
	if i := strings.LastIndexByte(out, '\n'); i >= 0 {
		if jerr := json.Unmarshal([]byte(out[i+1:]), &res); jerr != nil {
			t.Fatalf("last line is not the result object: %v\n%s", jerr, out)
		}
	}
	return out, res, err == nil
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				out, res, ok := runBench(t, "--workload", w.Name, "--seed", "7", "--trace", trace)
				if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run failed: ok=%v result=%+v\n%s", ok, res, out)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out, m.Name+" ") || !strings.Contains(out, " "+m.Unit+"\n") {
						t.Errorf("metric %s %s missing from the human-readable lines", m.Name, m.Unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v; it must never be 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	data, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	const key = "tiny/default/fft/lrc"
	c, ok := ref.Cells[key]
	if !ok {
		t.Fatalf("reference has no %s", key)
	}
	c.ExecCycles++
	ref.Cells[key] = c
	bad, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	out, res, ok := runBench(t, "--workload", "core-medium", "--seed", "1", "--ref", path)
	if ok || res.Correct || res.Failed < 1 {
		t.Fatalf("a corrupted reference entry was not caught: ok=%v result=%+v\n%s", ok, res, out)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	out, _, ok := runBench(t, "--workload", "no-such-workload")
	if ok || strings.Contains(out, `"correct"`) {
		t.Fatalf("an unknown workload ran:\n%s", out)
	}
}
