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
		ID:    "fig12",
		Title: "Fig. 12: six LC + two BE applications collocated (scale-up)",
		Run:   runFig12,
	})
}

// runFig12 doubles the number of collocated applications: all six Tailbench
// LC applications at 20% load plus Fluidanimate and Streamcluster, under
// PARTIES and ARQ. The paper's headline for this mix: ARQ drastically
// reduces the tails of the applications PARTIES starves (Moses, Sphinx) at
// the cost of a slight increase on Xapian, cutting E_S by ~36%.
func runFig12(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig12", Title: "6 LC + 2 BE collocation"}
	apps := []sim.AppConfig{
		lcAt("moses", 0.20),
		lcAt("xapian", 0.20),
		lcAt("img-dnn", 0.20),
		lcAt("sphinx", 0.20),
		lcAt("masstree", 0.20),
		lcAt("silo", 0.20),
		beApp("fluidanimate"),
		beApp("streamcluster"),
	}
	// Sphinx's second-scale requests need a longer horizon to produce a
	// meaningful p95 under an 8-way collocation.
	opts := core.Options{EpochMs: 500, WarmupMs: 15_000, DurationMs: 45_000}
	if cfg.Quick {
		opts = core.Options{EpochMs: 500, WarmupMs: 4_000, DurationMs: 10_000}
	}

	lat := Table{
		Caption: "run-level p95 (ms) per LC application and IPC per BE application",
		Columns: []string{"strategy", "moses", "xapian", "img-dnn", "sphinx", "masstree", "silo", "fluid IPC", "strmclst IPC", "E_S", "yield"},
	}
	p := workpool.New(cfg.Parallel)
	names := []string{"parties", "arq"}
	futs := make([]*workpool.Future[*core.Result], len(names))
	for i, name := range names {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		futs[i] = runMixAsync(p, cfg, machine.DefaultSpec(), apps, f, opts)
	}
	for i, name := range names {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, lc := range []string{"moses", "xapian", "img-dnn", "sphinx", "masstree", "silo"} {
			row = append(row, fmtMs(appP95(run, lc)))
		}
		row = append(row,
			fmt.Sprintf("%.2f", appIPC(run, "fluidanimate")),
			fmt.Sprintf("%.2f", appIPC(run, "streamcluster")),
			fmt.Sprintf("%.3f", run.MeanES),
			fmtPct(run.Yield))
		lat.Rows = append(lat.Rows, row)
	}
	lat.Notes = append(lat.Notes,
		"paper: ARQ cuts Moses 29.88->5.75 ms and Sphinx 7904->2514 ms vs PARTIES; E_S 0.33->0.21 (-36.4%)")
	res.Tables = append(res.Tables, lat)
	return res, nil
}
