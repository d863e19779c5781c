package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
)

func init() {
	register(Descriptor{
		ID:    "fig5",
		Title: "Fig. 5: allocation snapshot, Xapian at 30% (PARTIES vs ARQ)",
		Run: func(cfg RunConfig) (*Result, error) {
			return runSnapshot(cfg, "fig5", 0.30)
		},
	})
	register(Descriptor{
		ID:    "fig6",
		Title: "Fig. 6: allocation snapshot, Xapian at 90% (PARTIES vs ARQ)",
		Run: func(cfg RunConfig) (*Result, error) {
			return runSnapshot(cfg, "fig6", 0.90)
		},
	})
}

// runSnapshot reproduces the allocation snapshots of Section IV-C: Xapian
// (30% or 90%), Moses and Img-dnn (20%) and Stream, under PARTIES and ARQ.
// It reports the converged allocation of each strategy — which share of
// cores and ways each application (or the shared region) ends up holding —
// plus the resulting entropies.
func runSnapshot(cfg RunConfig, id string, xapianLoad float64) (*Result, error) {
	res := &Result{ID: id, Title: fmt.Sprintf("Allocation snapshots, Xapian %s", fmtPct(xapianLoad))}
	spec := machine.DefaultSpec()
	p := workpool.New(cfg.Parallel)
	names := []string{"parties", "arq"}
	futs := make([]*workpool.Future[*core.Result], len(names))
	for i, name := range names {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		futs[i] = runMixAsync(p, cfg, spec, standardMix(xapianLoad, 0.20, 0.20, "stream"), f, core.Options{})
	}
	for i, name := range names {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		tab := Table{
			Caption: fmt.Sprintf("%s converged allocation (E_LC=%.3f, E_BE=%.3f, E_S=%.3f)",
				name, run.MeanELC, run.MeanEBE, run.MeanES),
			Columns: []string{"region", "cores", "%cores", "ways", "%ways", "bw units"},
		}
		for _, g := range run.FinalAllocation.Regions {
			if g.Empty() {
				continue
			}
			tab.AddRow(g.Name,
				g.Cores, fmtPct(float64(g.Cores)/float64(spec.Cores)),
				g.Ways, fmtPct(float64(g.Ways)/float64(spec.LLCWays)),
				g.BWUnits)
		}
		res.Tables = append(res.Tables, tab)
	}
	if xapianLoad < 0.5 {
		res.Tables[len(res.Tables)-1].Notes = []string{
			"paper: at 30% ARQ isolates only Xapian (10% cores, 25% ways) and pools the rest; PARTIES isolates everyone and leaves the BE app 10% cores",
		}
	} else {
		res.Tables[len(res.Tables)-1].Notes = []string{
			"paper: at 90% ARQ gives Xapian 70% cores / 65% ways by sharing the other LC apps; PARTIES can only give 50%/40%",
		}
	}
	return res, nil
}
