package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sim"
)

func init() {
	register(Descriptor{
		ID:    "ext-bignode",
		Title: "Extension: does the strategy ordering transfer to a larger node?",
		Run:   runExtBigNode,
	})
}

// bigNodeSpec models a roomier server generation than the paper's testbed:
// 28 cores, an 11-way 38.5 MB LLC (Skylake-SP-like CAT geometry) and more
// bandwidth headroom.
func bigNodeSpec() machine.Spec {
	return machine.Spec{Cores: 28, LLCWays: 11, MemBWUnits: 10, MemBWGBps: 90}
}

// runExtBigNode reruns the central comparison on the larger node with a
// larger collocation (five LC applications, two BE applications). The
// geometry is deliberately different in kind: core-rich but way-poor
// (Skylake-SP CAT exposes only 11 ways). Two findings transfer from the
// 10-core node — ARQ beats the strict partitioners at low load, and CLITE
// struggles with the bigger search space — and one does not: with cores
// ample and ways the scarce dimension, the all-shared baselines match or
// beat ARQ at high load, because every way moved into an isolated region
// starves the other six applications of cache, and E_S noise lets that
// drift accumulate faster than the rollback can catch it. The paper does
// not explore way-poor geometries; this is a genuine limitation of
// ReT-greedy isolation, documented in EXPERIMENTS.md.
func runExtBigNode(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ext-bignode", Title: "Strategy ordering on a 28-core node"}
	mkApps := func(xapianLoad float64) []sim.AppConfig {
		apps := []sim.AppConfig{
			lcAt("xapian", xapianLoad),
			lcAt("moses", 0.30),
			lcAt("img-dnn", 0.30),
			lcAt("masstree", 0.30),
			lcAt("silo", 0.30),
			beApp("stream"),
			beApp("fluidanimate"),
		}
		return apps
	}
	loads := []float64{0.20, 0.60, 0.90}
	strategies := AllStrategies()
	if cfg.Quick {
		loads = []float64{0.20, 0.90}
		strategies = []StrategyFactory{strategies[0], strategies[4]} // unmanaged, arq
	}
	tab := Table{
		Caption: "mean E_LC / E_S per strategy (5 LC + 2 BE on 28 cores, 11 ways, 90 GB/s)",
		Columns: []string{"strategy"},
	}
	for _, l := range loads {
		tab.Columns = append(tab.Columns, fmtPct(l)+" E_LC", fmtPct(l)+" E_S")
	}
	p := workpool.New(cfg.Parallel)
	futs := make([][]*workpool.Future[*core.Result], len(strategies))
	for si, f := range strategies {
		futs[si] = make([]*workpool.Future[*core.Result], len(loads))
		for li, l := range loads {
			futs[si][li] = runMixAsync(p, cfg, bigNodeSpec(), mkApps(l), f, core.Options{})
		}
	}
	for si, f := range strategies {
		row := []string{f.Name}
		for li, l := range loads {
			run, err := futs[si][li].Wait()
			if err != nil {
				return nil, fmt.Errorf("%s at %.0f%%: %w", f.Name, 100*l, err)
			}
			row = append(row,
				fmt.Sprintf("%.3f", run.MeanELC), fmt.Sprintf("%.3f", run.MeanES))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"low-load ordering transfers (ARQ < PARTIES/CLITE); at high load on this way-poor geometry the all-shared baselines win — see the runner's doc comment")
	res.Tables = append(res.Tables, tab)
	return res, nil
}
