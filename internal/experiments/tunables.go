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
		ID:    "ablation-tunables",
		Title: "Ablation: sensitivity of the Table II shape to the contention-model constants",
		Run:   runAblationTunables,
	})
}

// runAblationTunables perturbs each contention-model constant (the
// simulator's substitute physics for the paper's testbed) and re-measures
// the Table II ladder — Unmanaged E_S at 6, 7 and 8 cores. The reproduced
// *shape* (a steep monotone drop as cores grow) must survive halving or
// raising each constant; the absolute values may move. This is the
// robustness argument for the substitution in DESIGN.md §3.
func runAblationTunables(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-tunables", Title: "Contention-constant sensitivity"}
	base := sim.DefaultTunables()
	variants := []struct {
		label string
		mut   func(*sim.Tunables)
	}{
		{"default", func(*sim.Tunables) {}},
		{"batch drag 0.25", func(tu *sim.Tunables) { tu.BatchDrag = 0.25 }},
		{"batch drag 0.75", func(tu *sim.Tunables) { tu.BatchDrag = 0.75 }},
		{"timeslice 2 ms", func(tu *sim.Tunables) { tu.TimesliceMs = 2 }},
		{"timeslice 8 ms", func(tu *sim.Tunables) { tu.TimesliceMs = 8 }},
		{"no pollution", func(tu *sim.Tunables) { tu.PollutionOverhead = 0 }},
		{"pollution x2", func(tu *sim.Tunables) { tu.PollutionOverhead = 2 * base.PollutionOverhead }},
		{"no warm-up", func(tu *sim.Tunables) { tu.WarmupMissBoost = 0 }},
	}
	tab := Table{
		Caption: "Unmanaged mean E_S at 6/7/8 cores (Table II mix) per model variant",
		Columns: []string{"variant", "6 cores", "7 cores", "8 cores", "monotone drop"},
	}
	unmanaged, err := StrategyByName("unmanaged")
	if err != nil {
		return nil, err
	}
	warm, dur := horizons(cfg)
	coreCounts := []int{6, 7, 8}
	p := workpool.New(cfg.Parallel)
	futs := make([][]*workpool.Future[float64], len(variants))
	for vi, v := range variants {
		tun := base
		v.mut(&tun)
		futs[vi] = make([]*workpool.Future[float64], len(coreCounts))
		for i, cores := range coreCounts {
			futs[vi][i] = workpool.Submit(p, func() (float64, error) {
				engine, err := sim.New(sim.Config{
					Spec:     machine.DefaultSpec().Shrink(cores, 20),
					Seed:     cfg.Seed,
					Tunables: tun,
					Apps:     standardMix(0.20, 0.20, 0.20, "fluidanimate"),
				})
				if err != nil {
					return 0, err
				}
				run, err := core.Run(engine, unmanaged.New(cfg.Seed),
					core.Options{EpochMs: 500, WarmupMs: warm, DurationMs: dur})
				if err != nil {
					return 0, err
				}
				return run.MeanES, nil
			})
		}
	}
	for vi, v := range variants {
		var es [3]float64
		for i := range coreCounts {
			val, err := futs[vi][i].Wait()
			if err != nil {
				return nil, err
			}
			es[i] = val
		}
		monotone := "yes"
		if !(es[0] > es[1] && es[1] > es[2]) {
			monotone = "NO"
		}
		tab.AddRow(v.label,
			fmt.Sprintf("%.3f", es[0]), fmt.Sprintf("%.3f", es[1]), fmt.Sprintf("%.3f", es[2]),
			monotone)
	}
	tab.Notes = append(tab.Notes,
		"the reproduced shape must not hinge on any single constant")
	res.Tables = append(res.Tables, tab)
	return res, nil
}
