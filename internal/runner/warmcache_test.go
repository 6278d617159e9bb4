package runner_test

import (
	"context"
	"encoding/json"
	"testing"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
	"lazyrc/internal/runner"
	"lazyrc/internal/store"
)

// TestWarmCacheSkipsAllSimulation is the cache contract end to end: a
// second runner over the same store directory simulates nothing and
// returns byte-identical results.
func TestWarmCacheSkipsAllSimulation(t *testing.T) {
	dir := t.TempDir()
	cfg := config.Default(4)
	cfg.CacheSize = 2 << 10
	cfg.Seed = 1
	jobs := []runner.Job{
		{App: "gauss", Scale: apps.Tiny, Proto: "sc", Cfg: cfg},
		{App: "gauss", Scale: apps.Tiny, Proto: "lrc", Cfg: cfg},
		{App: "fft", Scale: apps.Tiny, Proto: "erc", Cfg: cfg},
	}

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := runner.New(4, cold)
	first := r1.DoAll(context.Background(), jobs)
	if m := r1.Meta(); m.Simulated != 3 || m.CacheHits != 0 || m.CacheMisses != 3 {
		t.Fatalf("cold meta: %+v", m)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	r2 := runner.New(4, warm)
	second := r2.DoAll(context.Background(), jobs)
	if m := r2.Meta(); m.Simulated != 0 || m.CacheHits != 3 || m.CacheMisses != 0 {
		t.Fatalf("warm meta: %+v", m)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Fatalf("job %d not marked cached", i)
		}
		a, err := json.Marshal(first[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(second[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("job %d: cached result differs:\n%s\n%s", i, a, b)
		}
	}
}
