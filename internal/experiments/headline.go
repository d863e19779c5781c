package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
)

func init() {
	register(Descriptor{
		ID:    "headline",
		Title: "Abstract headline numbers: yield, E_S and low-load BE IPC vs PARTIES/CLITE",
		Run:   runHeadline,
	})
}

// runHeadline aggregates the abstract's claims over the Stream collocation
// grid (the paper's "experiments above" refers to the Fig. 8/9 sweeps):
//
//   - yield: ratio of satisfied LC applications, averaged over the grid
//     (paper: ARQ 85% vs PARTIES 60% and CLITE 65%);
//   - mean E_S over the grid (paper: ARQ 0.14 vs 0.22/0.21, i.e. -36.4% and
//     -33.3%);
//   - BE IPC at low load (paper: +63.8% over PARTIES, +37.1% over CLITE).
func runHeadline(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "headline", Title: "Headline comparison"}
	grid := []struct {
		xapian, fixed float64
	}{
		{0.10, 0.20}, {0.30, 0.20}, {0.50, 0.20}, {0.70, 0.20}, {0.90, 0.20},
		{0.10, 0.40}, {0.30, 0.40}, {0.50, 0.40}, {0.70, 0.40}, {0.90, 0.40},
	}
	lowLoad := []bool{true, true, true, false, false, true, false, false, false, false}
	if cfg.Quick {
		grid = grid[:4]
		lowLoad = lowLoad[:4]
	}
	tab := Table{
		Caption: "aggregates over the Stream collocation grid (Xapian 10-90%, Moses/Img-dnn 20/40%)",
		Columns: []string{"strategy", "yield", "mean E_S", "low-load BE IPC"},
	}
	// Full runs repeat the grid over three seeds to damp simulation
	// noise in the headline aggregates.
	repeats := 3
	if cfg.Quick {
		repeats = 1
	}
	type agg struct {
		yield, es, ipc float64
		n, nIPC        int
	}
	results := map[string]*agg{}
	order := []string{"parties", "clite", "arq"}
	p := workpool.New(cfg.Parallel)
	type cell struct {
		fut *workpool.Future[*core.Result]
		low bool
	}
	futs := make(map[string][]cell, len(order))
	for _, name := range order {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		for rep := 0; rep < repeats; rep++ {
			repCfg := cfg
			repCfg.Seed = cfg.Seed + int64(rep)*101
			for i, g := range grid {
				futs[name] = append(futs[name], cell{
					fut: runMixAsync(p, repCfg, machine.DefaultSpec(),
						standardMix(g.xapian, g.fixed, g.fixed, "stream"), f, core.Options{}),
					low: lowLoad[i],
				})
			}
		}
	}
	for _, name := range order {
		a := &agg{}
		for _, c := range futs[name] {
			run, err := c.fut.Wait()
			if err != nil {
				return nil, err
			}
			a.yield += run.Yield
			a.es += run.MeanES
			a.n++
			if c.low {
				a.ipc += appIPC(run, "stream")
				a.nIPC++
			}
		}
		a.yield /= float64(a.n)
		a.es /= float64(a.n)
		if a.nIPC > 0 {
			a.ipc /= float64(a.nIPC)
		}
		results[name] = a
		tab.AddRow(name, fmtPct(a.yield), a.es, fmt.Sprintf("%.3f", a.ipc))
	}
	res.Tables = append(res.Tables, tab)

	cmp := Table{
		Caption: "ARQ relative to the baselines",
		Columns: []string{"baseline", "yield delta (pts)", "E_S reduction", "low-load IPC gain"},
	}
	arq := results["arq"]
	for _, base := range []string{"parties", "clite"} {
		b := results[base]
		esRed := "-"
		if b.es > 0 {
			esRed = fmtPct((b.es - arq.es) / b.es)
		}
		ipcGain := "-"
		if b.ipc > 0 {
			ipcGain = fmtPct((arq.ipc - b.ipc) / b.ipc)
		}
		cmp.AddRow(base,
			fmt.Sprintf("%+.0f", 100*(arq.yield-b.yield)),
			esRed, ipcGain)
	}
	cmp.Notes = append(cmp.Notes,
		"paper: +25/+20 yield points, -36.4%/-33.3% E_S, +63.8%/+37.1% low-load IPC vs PARTIES/CLITE")
	res.Tables = append(res.Tables, cmp)
	return res, nil
}
