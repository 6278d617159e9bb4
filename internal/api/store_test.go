package api

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/exp"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// waitSweep submits a spec and blocks until the sweep is terminal.
func waitSweep(t *testing.T, svc *Service, spec exp.Spec) SweepStatus {
	t.Helper()
	st, _, err := svc.SubmitSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.SweepDone(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if st, err = svc.Sweep(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("sweep finished %s (%s), want done", st.State, st.Error)
	}
	return st
}

// TestBootReplayLeavesRegistryAlone: restoring the persisted sweeps at
// boot does not rewrite the registry it just read (once per sweep, as it
// did), and the next client submission still persists.
func TestBootReplayLeavesRegistryAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ctx := context.Background()
	dir := t.TempDir()
	specs := []exp.Spec{
		{Targets: []string{"fig4"}, Apps: []string{"gauss"}, Scale: "tiny", Procs: 4, Seed: 1},
		{Targets: []string{"fig5"}, Apps: []string{"gauss"}, Scale: "tiny", Procs: 4, Seed: 1},
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(2, st, nil)
	for _, sp := range specs {
		waitSweep(t, svc, sp)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	registry := filepath.Join(dir, "sweeps.json")
	before, err := os.Stat(registry)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := NewService(2, st2, nil)
	defer svc2.Close(ctx)
	restored := svc2.Sweeps()
	if len(restored) != len(specs) {
		t.Fatalf("boot restored %d sweeps, want %d", len(restored), len(specs))
	}
	for _, sw := range restored {
		done, err := svc2.SweepDone(sw.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-done
	}
	after, err := os.Stat(registry)
	if err != nil {
		t.Fatal(err)
	}
	// A rewrite renames a fresh file into place: a new inode and mtime.
	if !os.SameFile(before, after) || !before.ModTime().Equal(after.ModTime()) {
		t.Fatal("boot replay rewrote sweeps.json")
	}

	waitSweep(t, svc2, exp.Spec{Targets: []string{"fig4"}, Apps: []string{"fft"}, Scale: "tiny", Procs: 4, Seed: 1})
	if got := len(st2.Sweeps()); got != len(specs)+1 {
		t.Fatalf("registry holds %d sweeps after a client submission, want %d", got, len(specs)+1)
	}
}

// TestStoreWarmedByEvaluatorServesDaemon is the interchange contract: a
// directory warmed by an evaluator over runner.New(n, store) — what
// paperbench -cache does — serves the daemon's sweep of the same shape
// without simulating.
func TestStoreWarmedByEvaluatorServesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := exp.NewEvaluatorWith(apps.Tiny, 4, runner.New(2, st))
	e.Seed = 1
	e.Prefetch(exp.TargetCells([]string{"fig4"}))
	if m := e.R.Meta(); m.Simulated == 0 || m.FailedJobs != 0 {
		t.Fatalf("warming run meta: %+v", m)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc := NewService(2, st2, nil)
	defer svc.Close(ctx)
	got := waitSweep(t, svc, exp.Spec{Targets: []string{"fig4"}, Apps: []string{"gauss"}, Scale: "tiny", Procs: 4, Seed: 1})
	if got.Jobs == 0 || got.FromCache != got.Jobs || got.Executed != 0 {
		t.Fatalf("daemon sweep over a paperbench-warmed store: %+v", got)
	}
}

// TestSweepCountersIgnoreDaemonHistory: a cell an earlier direct job
// pulled from the store into the runner memo still counts as from_cache
// in a later sweep, so the same sweep over the same store reports the
// same counters whatever the daemon served before it.
func TestSweepCountersIgnoreDaemonHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := exp.NewEvaluatorWith(apps.Tiny, 4, runner.New(2, st))
	e.Seed = 1
	e.Prefetch(exp.TargetCells([]string{"fig4"}))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc := NewService(2, st2, nil)
	defer svc.Close(ctx)
	js, _, err := svc.SubmitJob(ctx, JobRequest{App: "gauss", Scale: "tiny", Proto: "lrc", Procs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.JobDone(js.FP)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	got := waitSweep(t, svc, exp.Spec{Targets: []string{"fig4"}, Apps: []string{"gauss"}, Scale: "tiny", Procs: 4, Seed: 1})
	if got.FromCache != got.Jobs || got.Deduped != 0 || got.Executed != 0 {
		t.Fatalf("sweep after a direct job on a warm store: %+v", got)
	}
}
