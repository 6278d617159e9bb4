package exp

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"lazyrc/internal/apps"
	"lazyrc/internal/causal"
	"lazyrc/internal/machine"
)

// CriticalPath renders the per-protocol per-app stall attribution table
// for `paperbench -critical-path`: for every (application, protocol)
// cell it runs a span-traced simulation, attributes every stalled cycle
// to its protocol cause with the critical-path analyzer, and prints the
// cause shares of total stall time. This is the transaction-granularity
// mirror of the paper's Figure 5/7 overhead breakdowns — instead of
// "write stall grew" it shows *which* protocol resource the cycles
// queued behind.
//
// Runs here retain the full span store, so they execute directly rather
// than through the runner's digest-only result cache.
func CriticalPath(scale apps.Scale, procs int, seed uint64, appNames []string) string {
	if len(appNames) == 0 {
		appNames = AppOrder
	}
	e := NewEvaluator(scale, procs)
	e.Seed = seed
	cfg := e.configFor("default")

	var b strings.Builder
	fmt.Fprintf(&b, "critical-path stall attribution (%s, %d procs; %% of each run's stall cycles)\n", scale, procs)
	tw := tabwriter.NewWriter(&b, 0, 8, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "app\tproto\tstall\t")
	for c := causal.Cause(0); c < causal.NumCauses; c++ {
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	for _, appName := range appNames {
		for _, proto := range protoOrder {
			app, err := apps.New(appName, scale)
			if err != nil {
				panic(fmt.Sprintf("critical-path: %v", err))
			}
			m, err := apps.RunWith(cfg, proto, app, func(m *machine.Machine) { m.EnableSpans(true, 0) })
			if m == nil {
				panic(fmt.Sprintf("critical-path: %v", err))
			}
			if err != nil {
				panic(fmt.Sprintf("critical-path: %s/%s failed verification: %v", appName, proto, err))
			}
			a := causal.Analyze(m.Causal)
			total := a.Total()
			fmt.Fprintf(tw, "%s\t%s\t%d\t", appName, proto, total)
			for c := causal.Cause(0); c < causal.NumCauses; c++ {
				if total == 0 {
					fmt.Fprintf(tw, "-\t")
					continue
				}
				fmt.Fprintf(tw, "%.1f\t", 100*float64(a.CauseTotal(c))/float64(total))
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return b.String()
}
