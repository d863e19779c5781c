package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
)

func init() {
	register(Descriptor{
		ID:    "ablation-interval",
		Title: "Ablation: ARQ monitoring interval (250 ms / 500 ms / 1 s / 2 s)",
		Run:   runAblationInterval,
	})
	register(Descriptor{
		ID:    "ablation-arq",
		Title: "Ablation: ARQ design knobs (rollback, 60 s ban, shared region)",
		Run:   runAblationARQ,
	})
	register(Descriptor{
		ID:    "ablation-ri",
		Title: "Ablation: relative importance RI sweep",
		Run:   runAblationRI,
	})
}

// runAblationInterval sweeps the monitoring interval, the design choice
// discussed at the end of Section IV-B: shorter intervals react faster but
// measure noisier tails; longer ones stretch each violation.
func runAblationInterval(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-interval", Title: "Monitoring interval sweep"}
	tab := Table{
		Caption: "ARQ on Xapian 70% + Moses/Img-dnn 20% + Stream",
		Columns: []string{"interval (ms)", "violations", "adjustments", "mean E_LC", "mean E_S"},
	}
	// runMix fills the run mode's horizons even though only EpochMs is
	// customised here (it used to silently fall back to core defaults).
	epochs := []float64{250, 500, 1000, 2000}
	p := workpool.New(cfg.Parallel)
	futs := make([]*workpool.Future[*core.Result], len(epochs))
	for i, epoch := range epochs {
		f, err := StrategyByName("arq")
		if err != nil {
			return nil, err
		}
		futs[i] = runMixAsync(p, cfg, machine.DefaultSpec(),
			standardMix(0.70, 0.20, 0.20, "stream"), f,
			core.Options{EpochMs: epoch})
	}
	for i, epoch := range epochs {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		tab.AddRow(fmt.Sprintf("%.0f", epoch), run.TotalViolationEpochs, run.Adjustments,
			run.MeanELC, run.MeanES)
	}
	tab.Notes = append(tab.Notes, "paper settles on 500 ms (Section IV-B)")
	res.Tables = append(res.Tables, tab)
	return res, nil
}

// runAblationARQ toggles ARQ's three distinctive mechanisms: the entropy
// rollback, the 60 s penalty ban, and the shared region itself (without it
// ARQ degenerates into a strict partitioner).
func runAblationARQ(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-arq", Title: "ARQ design-knob ablation"}
	tab := Table{
		Caption: "Xapian 70% + Moses/Img-dnn 20% + Stream",
		Columns: []string{"variant", "violations", "adjustments", "mean E_LC", "mean E_BE", "mean E_S"},
	}
	variants := []struct {
		label string
		make  func() sched.Strategy
	}{
		{"arq (full)", func() sched.Strategy { return arq.Default() }},
		{"no rollback", func() sched.Strategy {
			c := arq.DefaultConfig()
			c.DisableRollback = true
			return arq.New(c)
		}},
		{"no 60s ban", func() sched.Strategy {
			c := arq.DefaultConfig()
			c.DisableBan = true
			return arq.New(c)
		}},
		{"no panic preemption", func() sched.Strategy {
			c := arq.DefaultConfig()
			c.PanicUnits = 1
			return arq.New(c)
		}},
		{"strict partitioning (parties)", nil}, // filled below
	}
	p := workpool.New(cfg.Parallel)
	futs := make([]*workpool.Future[*core.Result], len(variants))
	for i, v := range variants {
		var f StrategyFactory
		if v.make != nil {
			mk := v.make
			f = StrategyFactory{Name: v.label, New: func(int64) sched.Strategy { return mk() }}
		} else {
			var err error
			f, err = StrategyByName("parties")
			if err != nil {
				return nil, err
			}
		}
		futs[i] = runMixAsync(p, cfg, machine.DefaultSpec(),
			standardMix(0.70, 0.20, 0.20, "stream"), f, core.Options{})
	}
	for i, v := range variants {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		tab.AddRow(v.label, run.TotalViolationEpochs, run.Adjustments,
			run.MeanELC, run.MeanEBE, run.MeanES)
	}
	res.Tables = append(res.Tables, tab)
	return res, nil
}

// runAblationRI sweeps the relative importance of LC over BE applications
// (Eq. 7). The measured latencies and IPCs barely change — RI re-weights
// the report — but the *controller* behaviour does change for ARQ, because
// E_S is its rollback signal.
func runAblationRI(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-ri", Title: "Relative importance sweep"}
	tab := Table{
		Caption: "ARQ on Xapian 50% + Moses/Img-dnn 20% + Stream",
		Columns: []string{"RI", "mean E_LC", "mean E_BE", "mean E_S", "yield"},
	}
	ris := []float64{0.5, 0.65, 0.8, 0.95}
	p := workpool.New(cfg.Parallel)
	futs := make([]*workpool.Future[*core.Result], len(ris))
	for i, ri := range ris {
		f, err := StrategyByName("arq")
		if err != nil {
			return nil, err
		}
		futs[i] = runMixAsync(p, cfg, machine.DefaultSpec(),
			standardMix(0.50, 0.20, 0.20, "stream"), f,
			core.Options{EpochMs: 500, RI: ri})
	}
	for i, ri := range ris {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		tab.AddRow(fmt.Sprintf("%.2f", ri), run.MeanELC, run.MeanEBE, run.MeanES, fmtPct(run.Yield))
	}
	tab.Notes = append(tab.Notes, "paper fixes RI=0.8; scarcity restricts the sensible range to [0.5,1]")
	res.Tables = append(res.Tables, tab)
	return res, nil
}
