package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sched"
	"ahq/internal/sched/heracles"
)

func init() {
	register(Descriptor{
		ID:    "ext-heracles",
		Title: "Extension: Heracles-style threshold baseline vs. PARTIES and ARQ",
		Run:   runExtHeracles,
	})
}

// runExtHeracles places the Heracles-style controller (related work the
// paper discusses but does not evaluate) between the evaluated strategies
// on the Stream collocation. Expected shape: Heracles protects LC tails by
// clawing resources back from the single BE partition, but because it
// cannot rebalance resources *between* LC applications it loses to both
// PARTIES and ARQ once the LC class itself is imbalanced (high Xapian
// load).
func runExtHeracles(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ext-heracles", Title: "Heracles comparison"}
	strategies := []StrategyFactory{
		{Name: "heracles", New: func(int64) sched.Strategy { return heracles.Default() }},
	}
	parties, err := StrategyByName("parties")
	if err != nil {
		return nil, err
	}
	arq, err := StrategyByName("arq")
	if err != nil {
		return nil, err
	}
	strategies = append(strategies, parties, arq)

	loads := []float64{0.10, 0.50, 0.90}
	tab := Table{
		Caption: "Xapian sweep (Moses/Img-dnn 20%, Stream): mean E_LC / E_BE / E_S",
		Columns: []string{"strategy"},
	}
	for _, l := range loads {
		tab.Columns = append(tab.Columns,
			fmtPct(l)+" E_LC", fmtPct(l)+" E_BE", fmtPct(l)+" E_S")
	}
	p := workpool.New(cfg.Parallel)
	futs := make([][]*workpool.Future[*core.Result], len(strategies))
	for si, f := range strategies {
		futs[si] = make([]*workpool.Future[*core.Result], len(loads))
		for li, l := range loads {
			futs[si][li] = runMixAsync(p, cfg, machine.DefaultSpec(),
				standardMix(l, 0.20, 0.20, "stream"), f, core.Options{})
		}
	}
	for si, f := range strategies {
		row := []string{f.Name}
		for li := range loads {
			run, err := futs[si][li].Wait()
			if err != nil {
				return nil, err
			}
			row = append(row,
				fmt.Sprintf("%.3f", run.MeanELC),
				fmt.Sprintf("%.3f", run.MeanEBE),
				fmt.Sprintf("%.3f", run.MeanES))
		}
		tab.Rows = append(tab.Rows, row)
	}
	res.Tables = append(res.Tables, tab)
	return res, nil
}
