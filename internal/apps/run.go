package apps

import (
	"fmt"

	"lazyrc/internal/config"
	"lazyrc/internal/machine"
	"lazyrc/internal/telemetry"
)

// RunWith builds a machine with the given configuration and protocol,
// hands it to setup (when non-nil) to attach instruments and guards,
// executes the application on it, and verifies the result. It is the one
// copy of the build → instrument → run → verify sequence every caller
// shares. The machine is returned for statistics harvesting even when
// verification fails; a nil machine means construction failed.
func RunWith(cfg config.Config, protoName string, app App, setup func(*machine.Machine)) (*machine.Machine, error) {
	m, err := machine.New(cfg, protoName)
	if err != nil {
		return nil, fmt.Errorf("apps: %w", err)
	}
	if setup != nil {
		setup(m)
	}
	app.Setup(m)
	m.Run(app.Worker)
	return m, app.Verify()
}

// Run is RunWith with no instruments.
func Run(cfg config.Config, protoName string, app App) (*machine.Machine, error) {
	return RunWith(cfg, protoName, app, nil)
}

// RunInstrumented is Run with cycle-domain telemetry enabled at the
// given sampling interval. Telemetry is passive, so the simulated run is
// identical to Run's; the registry (also available as m.Tel) additionally
// carries the interval time series and latency histograms.
func RunInstrumented(cfg config.Config, protoName string, app App, interval uint64) (*machine.Machine, *telemetry.Registry, error) {
	var reg *telemetry.Registry
	m, err := RunWith(cfg, protoName, app, func(m *machine.Machine) {
		reg = m.EnableMetrics(interval)
		reg.SetMeta("app", app.Name())
	})
	return m, reg, err
}

// RunTraced is RunInstrumented with digest-only causal span tracing on
// top: the run additionally carries a span-stream fingerprint
// (m.Causal.Digest()) without retaining the span store, keeping memory
// bounded for runner sweeps. Both instruments are passive, so the
// simulated run is still identical to Run's.
func RunTraced(cfg config.Config, protoName string, app App, interval uint64) (*machine.Machine, *telemetry.Registry, error) {
	return RunTracedWith(cfg, protoName, app, interval, nil)
}

// RunTracedWith is RunTraced with a pre-run hook called after the machine
// is fully instrumented but before the workload starts — the attachment
// point for guards (invariant auditor, liveness watchdog) that need the
// built machine. A nil preRun is RunTraced exactly.
func RunTracedWith(cfg config.Config, protoName string, app App, interval uint64, preRun func(*machine.Machine)) (*machine.Machine, *telemetry.Registry, error) {
	var reg *telemetry.Registry
	m, err := RunWith(cfg, protoName, app, func(m *machine.Machine) {
		reg = m.EnableMetrics(interval)
		reg.SetMeta("app", app.Name())
		m.EnableSpans(false, 0)
		if preRun != nil {
			preRun(m)
		}
	})
	return m, reg, err
}
