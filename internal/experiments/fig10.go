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
		ID:    "fig10",
		Title: "Fig. 10: entropy heatmaps over (Xapian load x Img-dnn load)",
		Run:   runFig10,
	})
}

// runFig10 reproduces the load-grid heatmaps: Moses fixed at 20%, Stream as
// the BE application, and both Xapian's and Img-dnn's loads sweeping 10-90%,
// under PARTIES and ARQ. Each cell holds E_LC/E_BE/E_S; the expected shape
// is lower E_BE for ARQ in the low-load (top-left) region and lower E_LC in
// the high-load (bottom-right) region.
func runFig10(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig10", Title: "Entropy heatmaps, PARTIES vs ARQ"}
	loads := []float64{0.10, 0.30, 0.50, 0.70, 0.90}
	if cfg.Quick {
		loads = []float64{0.10, 0.50, 0.90}
	}
	p := workpool.New(cfg.Parallel)
	for _, name := range []string{"parties", "arq"} {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		for _, metric := range []string{"E_LC", "E_BE", "E_S"} {
			tab := Table{
				Caption: fmt.Sprintf("%s under %s (rows: Xapian load, cols: Img-dnn load); Moses 20%% + Stream", metric, name),
				Columns: []string{"xapian\\img-dnn"},
			}
			for _, l := range loads {
				tab.Columns = append(tab.Columns, fmtPct(l))
			}
			tab.Rows = make([][]string, len(loads))
			for i, xl := range loads {
				tab.Rows[i] = []string{fmtPct(xl)}
				_ = i
				_ = xl
			}
			res.Tables = append(res.Tables, tab)
		}
		// Fill all three tables in one sweep of runs, fanned out over the
		// pool and collected in row-major order.
		base := len(res.Tables) - 3
		grids := [3][][]float64{}
		for k := range grids {
			grids[k] = make([][]float64, len(loads))
		}
		cells := make([][]*workpool.Future[*core.Result], len(loads))
		for i, xl := range loads {
			cells[i] = make([]*workpool.Future[*core.Result], len(loads))
			for j, il := range loads {
				apps := []sim.AppConfig{
					lcAt("xapian", xl),
					lcAt("moses", 0.20),
					lcAt("img-dnn", il),
					beApp("stream"),
				}
				cells[i][j] = runMixAsync(p, cfg, machine.DefaultSpec(), apps, f, core.Options{})
			}
		}
		for i := range loads {
			for j := range loads {
				run, err := cells[i][j].Wait()
				if err != nil {
					return nil, err
				}
				vals := []float64{run.MeanELC, run.MeanEBE, run.MeanES}
				for k := 0; k < 3; k++ {
					res.Tables[base+k].Rows[i] = append(res.Tables[base+k].Rows[i], fmt.Sprintf("%.3f", vals[k]))
					grids[k][i] = append(grids[k][i], vals[k])
				}
			}
		}
		rowLabels := make([]string, len(loads))
		colLabels := make([]string, len(loads))
		for i, l := range loads {
			rowLabels[i] = fmtPct(l)
			colLabels[i] = fmtPct(l)
		}
		for k, metric := range []string{"E_LC", "E_BE", "E_S"} {
			res.Tables[base+k].Freeform = Heatmap(
				fmt.Sprintf("%s %s heatmap (rows: Xapian load, cols: Img-dnn load)", name, metric),
				rowLabels, colLabels, grids[k])
		}
	}
	return res, nil
}
