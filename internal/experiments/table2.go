package experiments

import (
	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/workload"
)

func init() {
	register(Descriptor{
		ID:    "table2",
		Title: "Table II: LC, BE and system entropy under Unmanaged with 6-8 cores",
		Run:   runTable2,
	})
}

// runTable2 reproduces Table II: Xapian, Moses, Img-dnn at 20% load plus
// Fluidanimate under the Unmanaged strategy, with the node shrunk to 6, 7
// and 8 cores (all 20 LLC ways). For each core count it reports each LC
// application's TL_i0, TL_i1, M_i, A_i, R_i, ReT_i and Q_i, and the system
// row with E_LC, E_BE and E_S.
func runTable2(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "table2", Title: "Entropy vs processing units (Unmanaged)"}
	unmanaged, err := StrategyByName("unmanaged")
	if err != nil {
		return nil, err
	}
	tab := Table{
		Caption: "Xapian(20%) Moses(20%) Img-dnn(20%) + Fluidanimate, 20 LLC ways",
		Columns: []string{"Cores", "App", "TL_i0", "TL_i1", "M_i", "A_i", "R_i", "ReT_i", "Q_i", "E_LC", "E_BE", "E_S"},
	}
	p := workpool.New(cfg.Parallel)
	coreCounts := []int{6, 7, 8}
	futs := make([]*workpool.Future[*core.Result], len(coreCounts))
	for i, cores := range coreCounts {
		spec := machine.DefaultSpec().Shrink(cores, 20)
		futs[i] = runMixAsync(p, cfg, spec, standardMix(0.20, 0.20, 0.20, "fluidanimate"), unmanaged, core.Options{})
	}
	for i, cores := range coreCounts {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		var (
			sumA, sumR, sumReT float64
			nLC                int
		)
		for _, a := range run.Apps {
			if a.Spec.Class != workload.LC {
				continue
			}
			s := a.LCSample
			sumA += s.Tolerance()
			sumR += s.Interference()
			sumReT += s.RemainingTolerance()
			nLC++
			tab.AddRow(cores, a.Spec.Name,
				fmtMs(s.IdealMs), fmtMs(s.MeasuredMs), fmtMs(s.TargetMs),
				s.Tolerance(), s.Interference(), s.RemainingTolerance(), s.Intolerable(),
				"-", "-", "-")
		}
		if nLC > 0 {
			n := float64(nLC)
			tab.AddRow(cores, "System", "-", "-", "-",
				sumA/n, sumR/n, sumReT/n, "-",
				run.RunELC, run.RunEBE, run.RunES)
		}
	}
	tab.Notes = append(tab.Notes,
		"paper: E_S drops 0.55 -> 0.19 -> 0 as cores grow 6 -> 7 -> 8",
	)
	res.Tables = append(res.Tables, tab)
	return res, nil
}
