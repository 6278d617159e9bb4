// Package runner is the experiment execution engine: it turns the
// evaluation's (application × protocol × configuration) matrix into
// fingerprinted jobs, executes them on a bounded worker pool with per-job
// panic capture, reuses results through a content-addressed result store
// (internal/store), and gates fresh reports against a committed baseline.
//
// Every job is a pure function of its spec — the simulator is
// deterministic and shares no mutable global state — so results are safe
// to compute concurrently, deduplicate by fingerprint, and replay from a
// cache: a report produced with 8 workers is bit-identical to one
// produced with 1, and a warm cache turns a full paperbench sweep into
// pure lookups.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
)

// fingerprintVersion is folded into every fingerprint. Bump it when the
// meaning of a job changes without its spec changing (simulator semantics,
// result schema) to invalidate stale caches wholesale.
// v2: results grew the telemetry metrics digest; cached v1 results lack
// it and must be recomputed.
// v3: results grew the causal span count and digest; cached v2 results
// lack them and must be recomputed.
// v4: results grew the end-state fields (memory digest, completion,
// invariant-check outcome) and transport counters; cached v3 results
// lack them and must be recomputed.
const fingerprintVersion = "lazyrc-job-v4"

// Job is one simulation to run: an application at a scale, a protocol,
// and a fully materialized machine configuration. Two jobs with the same
// fingerprint produce the same Result bit for bit.
type Job struct {
	App   string        `json:"app"`
	Scale apps.Scale    `json:"scale"`
	Proto string        `json:"proto"`
	Cfg   config.Config `json:"cfg"`
}

// Fingerprint returns the job's content hash: a hex SHA-256 over a
// canonical encoding of every field that determines the run's outcome
// (application, scale, protocol, and the entire configuration, including
// Seed and the fault-injection plan). Adding a config field changes the
// encoding and therefore retires all previously cached results — the
// conservative direction for a result cache.
func (j Job) Fingerprint() string {
	cfg, err := json.Marshal(j.Cfg)
	if err != nil {
		// config.Config is a plain struct of scalars; Marshal cannot fail.
		panic("runner: encoding config: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(fingerprintVersion))
	h.Write([]byte{0})
	h.Write([]byte(j.App))
	h.Write([]byte{0})
	h.Write([]byte(j.Scale.String()))
	h.Write([]byte{0})
	h.Write([]byte(j.Proto))
	h.Write([]byte{0})
	h.Write(cfg)
	return hex.EncodeToString(h.Sum(nil))
}

// String labels the job for progress lines.
func (j Job) String() string {
	return fmt.Sprintf("%s/%s (%s, %d procs)", j.App, j.Proto, j.Scale, j.Cfg.Procs)
}
