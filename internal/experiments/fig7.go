package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sim"
	"ahq/internal/workload"
)

func init() {
	register(Descriptor{
		ID:    "fig7",
		Title: "Fig. 7: solo tail latency vs arrival rate with 1/2/4/8 cores",
		Run:   runFig7,
	})
}

// runFig7 reproduces the profiling methodology of Section V: each LC
// application runs alone with 1, 2, 4 and 8 cores while its arrival rate
// sweeps from 10% to 110% of max load, and the p95 is recorded. The curves
// must show the hockey-stick: flat at low load, exploding past the knee,
// with the knee moving right as cores are added (up to the 4-thread limit).
func runFig7(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig7", Title: "Solo latency-load profiles"}
	apps := []string{"xapian", "moses", "img-dnn", "sphinx"}
	loads := []float64{0.10, 0.30, 0.50, 0.70, 0.85, 1.00, 1.10}
	coreCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		apps = apps[:2]
		loads = []float64{0.10, 0.50, 0.85, 1.10}
		coreCounts = []int{1, 4}
	}
	p := workpool.New(cfg.Parallel)
	futs := make(map[string][][]*workpool.Future[float64], len(apps))
	for _, name := range apps {
		cells := make([][]*workpool.Future[float64], len(loads))
		for i, load := range loads {
			cells[i] = make([]*workpool.Future[float64], len(coreCounts))
			for j, cores := range coreCounts {
				cells[i][j] = workpool.Submit(p, func() (float64, error) {
					return soloP95(cfg, name, load, cores)
				})
			}
		}
		futs[name] = cells
	}
	for _, name := range apps {
		app := workload.MustLC(name)
		tab := Table{
			Caption: fmt.Sprintf("%s: p95 (ms) vs load fraction of max (%.0f QPS); target M=%.2f ms",
				name, app.MaxLoadQPS, app.QoSTargetMs),
			Columns: []string{"load"},
		}
		for _, c := range coreCounts {
			tab.Columns = append(tab.Columns, fmt.Sprintf("%d cores", c))
		}
		for i, load := range loads {
			row := []string{fmtPct(load)}
			for j := range coreCounts {
				p95, err := futs[name][i][j].Wait()
				if err != nil {
					return nil, err
				}
				row = append(row, fmtMs(p95))
			}
			tab.Rows = append(tab.Rows, row)
		}
		res.Tables = append(res.Tables, tab)
	}
	return res, nil
}

// soloP95 runs one LC application alone on the given core count (all ways,
// all bandwidth) and returns its run-level mean p95.
func soloP95(cfg RunConfig, name string, load float64, cores int) (float64, error) {
	spec := machine.DefaultSpec()
	spec.Cores = cores
	unmanaged, err := StrategyByName("unmanaged")
	if err != nil {
		return 0, err
	}
	// Sphinx requests run for ~1 s, so short horizons starve the
	// percentile; stretch the run for long-service applications.
	opts := core.Options{}
	if workload.MustLC(name).ServiceMeanMs > 100 {
		opts.EpochMs = 5_000
		opts.WarmupMs = 20_000
		opts.DurationMs = 120_000
		if cfg.Quick {
			opts.WarmupMs = 10_000
			opts.DurationMs = 40_000
		}
	}
	run, err := runMix(cfg, spec, []sim.AppConfig{lcAt(name, load)}, unmanaged, opts)
	if err != nil {
		return 0, err
	}
	return run.Apps[0].MeanP95Ms, nil
}
