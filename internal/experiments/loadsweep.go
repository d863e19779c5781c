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
		ID:    "fig8",
		Title: "Fig. 8: Xapian/Moses/Img-dnn + Fluidanimate, Xapian load sweep",
		Run: func(cfg RunConfig) (*Result, error) {
			return runLoadSweep(cfg, "fig8", sweepSpec{
				varApp:    "xapian",
				fixedApps: []string{"moses", "img-dnn"},
				be:        "fluidanimate",
			})
		},
	})
	register(Descriptor{
		ID:    "fig9",
		Title: "Fig. 9: Xapian/Moses/Img-dnn + Stream (severe interference)",
		Run: func(cfg RunConfig) (*Result, error) {
			return runLoadSweep(cfg, "fig9", sweepSpec{
				varApp:    "xapian",
				fixedApps: []string{"moses", "img-dnn"},
				be:        "stream",
			})
		},
	})
	register(Descriptor{
		ID:    "fig11",
		Title: "Fig. 11: Img-dnn/Moses/Sphinx + Stream, Img-dnn load sweep",
		Run: func(cfg RunConfig) (*Result, error) {
			return runLoadSweep(cfg, "fig11", sweepSpec{
				varApp:    "img-dnn",
				fixedApps: []string{"moses", "sphinx"},
				be:        "stream",
			})
		},
	})
}

// sweepSpec describes one load-sweep figure: one LC application whose load
// varies 10-90%, two LC applications at a fixed load (20% in the left half
// of the figure, 40% in the right), and one BE application.
type sweepSpec struct {
	varApp    string
	fixedApps []string
	be        string
}

func runLoadSweep(cfg RunConfig, id string, sw sweepSpec) (*Result, error) {
	res := &Result{ID: id, Title: fmt.Sprintf("%s load sweep with %s", sw.varApp, sw.be)}
	fixedLoads := []float64{0.20, 0.40}
	varLoads := []float64{0.10, 0.30, 0.50, 0.70, 0.90}
	strategies := AllStrategies()
	if cfg.Quick {
		fixedLoads = fixedLoads[:1]
		varLoads = []float64{0.10, 0.50, 0.90}
		strategies = strategies[:2]
	}
	// Sphinx's second-scale requests need longer epochs to measure.
	opts := core.Options{}
	if sw.fixedApps[1] == "sphinx" && !cfg.Quick {
		opts = core.Options{EpochMs: 500, WarmupMs: 10_000, DurationMs: 40_000}
	}

	p := workpool.New(cfg.Parallel)
	for _, fixed := range fixedLoads {
		entTab := Table{
			Caption: fmt.Sprintf("entropy vs %s load (fixed LC loads %s)", sw.varApp, fmtPct(fixed)),
			Columns: []string{"strategy", "metric"},
		}
		latTab := Table{
			Caption: fmt.Sprintf("%s p95 (ms) and %s IPC vs %s load (fixed %s)",
				sw.varApp, sw.be, sw.varApp, fmtPct(fixed)),
			Columns: []string{"strategy", "metric"},
		}
		for _, l := range varLoads {
			entTab.Columns = append(entTab.Columns, fmtPct(l))
			latTab.Columns = append(latTab.Columns, fmtPct(l))
		}
		// One job per (strategy, load) cell of this fixed-load block.
		futs := make([][]*workpool.Future[*core.Result], len(strategies))
		for si, f := range strategies {
			futs[si] = make([]*workpool.Future[*core.Result], len(varLoads))
			for li, l := range varLoads {
				apps := []sim.AppConfig{
					lcAt(sw.varApp, l),
					lcAt(sw.fixedApps[0], fixed),
					lcAt(sw.fixedApps[1], fixed),
					beApp(sw.be),
				}
				futs[si][li] = runMixAsync(p, cfg, machine.DefaultSpec(), apps, f, opts)
			}
		}
		for si, f := range strategies {
			rows := map[string][]string{
				"E_LC": {f.Name, "E_LC"}, "E_BE": {f.Name, "E_BE"}, "E_S": {f.Name, "E_S"},
				"p95": {f.Name, "p95"}, "IPC": {f.Name, "IPC"},
			}
			for li, l := range varLoads {
				run, err := futs[si][li].Wait()
				if err != nil {
					return nil, fmt.Errorf("%s %s load %.0f%%: %w", id, f.Name, 100*l, err)
				}
				rows["E_LC"] = append(rows["E_LC"], fmt.Sprintf("%.3f", run.MeanELC))
				rows["E_BE"] = append(rows["E_BE"], fmt.Sprintf("%.3f", run.MeanEBE))
				rows["E_S"] = append(rows["E_S"], fmt.Sprintf("%.3f", run.MeanES))
				rows["p95"] = append(rows["p95"], fmtMs(appP95(run, sw.varApp)))
				rows["IPC"] = append(rows["IPC"], fmt.Sprintf("%.2f", appIPC(run, sw.be)))
			}
			for _, key := range []string{"E_LC", "E_BE", "E_S"} {
				entTab.Rows = append(entTab.Rows, rows[key])
			}
			for _, key := range []string{"p95", "IPC"} {
				latTab.Rows = append(latTab.Rows, rows[key])
			}
		}
		res.Tables = append(res.Tables, entTab, latTab)
	}
	return res, nil
}

// appP95 extracts one application's run-level p95 from a result.
func appP95(run *core.Result, name string) float64 {
	for _, a := range run.Apps {
		if a.Spec.Name == name && a.Spec.Class == workload.LC {
			return a.MeanP95Ms
		}
	}
	return 0
}

// appIPC extracts one application's run-level IPC from a result.
func appIPC(run *core.Result, name string) float64 {
	for _, a := range run.Apps {
		if a.Spec.Name == name && a.Spec.Class == workload.BE {
			return a.MeanIPC
		}
	}
	return 0
}
