package experiments

import (
	"fmt"
	"math"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
)

func init() {
	register(Descriptor{
		ID:    "fig2",
		Title: "Fig. 2: E_S vs available cores and LLC ways (Unmanaged, ARQ)",
		Run:   runFig2,
	})
	register(Descriptor{
		ID:    "fig3a",
		Title: "Fig. 3(a): E_S vs cores and the resource equivalence of ARQ",
		Run:   runFig3a,
	})
	register(Descriptor{
		ID:    "fig3b",
		Title: "Fig. 3(b): isentropic lines (cores needed per ways) at E_S=0.3",
		Run:   runFig3b,
	})
}

// esAt runs one strategy on a node shrunk to the given cores/ways and
// returns the measured mean system entropy.
func esAt(cfg RunConfig, f StrategyFactory, cores, ways int) (float64, error) {
	spec := machine.DefaultSpec().Shrink(cores, ways)
	run, err := runMix(cfg, spec, standardMix(0.20, 0.20, 0.20, "fluidanimate"), f, core.Options{})
	if err != nil {
		return 0, err
	}
	return run.MeanES, nil
}

// esAtAsync submits one esAt measurement to the pool.
func esAtAsync(p *workpool.Pool, cfg RunConfig, f StrategyFactory, cores, ways int) *workpool.Future[float64] {
	return workpool.Submit(p, func() (float64, error) { return esAt(cfg, f, cores, ways) })
}

func runFig2(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig2", Title: "E_S surface over (cores, ways)"}
	coreRange := []int{4, 5, 6, 7, 8, 9, 10}
	wayRange := []int{4, 8, 12, 16, 20}
	strategies := []string{"unmanaged", "arq"}
	if cfg.Quick {
		coreRange = []int{4, 7, 10}
		wayRange = []int{4, 12, 20}
	}
	p := workpool.New(cfg.Parallel)
	futs := make(map[string][][]*workpool.Future[float64], len(strategies))
	for _, name := range strategies {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		cells := make([][]*workpool.Future[float64], len(coreRange))
		for i, c := range coreRange {
			cells[i] = make([]*workpool.Future[float64], len(wayRange))
			for j, w := range wayRange {
				cells[i][j] = esAtAsync(p, cfg, f, c, w)
			}
		}
		futs[name] = cells
	}
	for _, name := range strategies {
		tab := Table{
			Caption: fmt.Sprintf("E_S under %s (rows: cores, cols: LLC ways); Xapian/Moses/Img-dnn 20%% + Fluidanimate", name),
			Columns: []string{"cores"},
		}
		for _, w := range wayRange {
			tab.Columns = append(tab.Columns, fmt.Sprintf("%d ways", w))
		}
		var grid [][]float64
		var rowLabels []string
		for i, c := range coreRange {
			row := []string{fmt.Sprint(c)}
			var vals []float64
			for j := range wayRange {
				es, err := futs[name][i][j].Wait()
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.3f", es))
				vals = append(vals, es)
			}
			tab.Rows = append(tab.Rows, row)
			grid = append(grid, vals)
			rowLabels = append(rowLabels, fmt.Sprintf("%dc", c))
		}
		tab.Notes = append(tab.Notes, "paper property ②: E_S must not increase as resources grow")
		colLabels := make([]string, len(wayRange))
		for i, w := range wayRange {
			colLabels[i] = fmt.Sprint(w)
		}
		tab.Freeform = Heatmap("E_S heatmap (dark = severe interference; cols = ways)",
			rowLabels, colLabels, grid)
		res.Tables = append(res.Tables, tab)
	}
	return res, nil
}

func runFig3a(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig3a", Title: "Resource equivalence of ARQ vs Unmanaged"}
	coreRange := []int{4, 5, 6, 7, 8, 9, 10}
	if cfg.Quick {
		coreRange = []int{4, 6, 8, 10}
	}
	curves := map[string]*entropy.Curve{}
	tab := Table{
		Caption: "E_S vs cores (20 ways); Xapian/Moses/Img-dnn 20% + Fluidanimate",
		Columns: []string{"cores", "unmanaged", "arq"},
	}
	points := map[string][]entropy.Point{}
	rows := make([][]string, len(coreRange))
	for i, c := range coreRange {
		rows[i] = []string{fmt.Sprint(c)}
	}
	p := workpool.New(cfg.Parallel)
	futs := make(map[string][]*workpool.Future[float64], 2)
	for _, name := range []string{"unmanaged", "arq"} {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		for _, c := range coreRange {
			futs[name] = append(futs[name], esAtAsync(p, cfg, f, c, 20))
		}
	}
	for _, name := range []string{"unmanaged", "arq"} {
		for i, c := range coreRange {
			es, err := futs[name][i].Wait()
			if err != nil {
				return nil, err
			}
			points[name] = append(points[name], entropy.Point{Resource: float64(c), ES: es})
			rows[i] = append(rows[i], fmt.Sprintf("%.3f", es))
		}
		curve, err := entropy.NewCurve(points[name])
		if err != nil {
			return nil, err
		}
		curves[name] = curve
	}
	tab.Rows = rows
	res.Tables = append(res.Tables, tab)

	eq := Table{
		Caption: "resource equivalence of ARQ relative to Unmanaged (cores saved at equal E_S)",
		Columns: []string{"E_S", "unmanaged needs", "arq needs", "equivalence (cores)"},
	}
	for _, target := range []float64{0.25, 0.40} {
		ru, errU := curves["unmanaged"].ResourceFor(target)
		ra, errA := curves["arq"].ResourceFor(target)
		if errU != nil || errA != nil {
			eq.AddRow(fmt.Sprintf("%.2f", target), "-", "-", "unreached")
			continue
		}
		eq.AddRow(fmt.Sprintf("%.2f", target),
			fmt.Sprintf("%.2f", ru), fmt.Sprintf("%.2f", ra), fmt.Sprintf("%.2f", ru-ra))
	}
	eq.Notes = append(eq.Notes, "paper: ~2.0 cores saved at E_S=0.25 and ~1.83 at E_S=0.40")
	res.Tables = append(res.Tables, eq)
	return res, nil
}

func runFig3b(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig3b", Title: "Isentropic lines at E_S = 0.3"}
	const targetES = 0.3
	wayRange := []int{4, 6, 8, 10, 14, 20}
	strategies := []string{"unmanaged", "parties", "clite", "arq"}
	if cfg.Quick {
		wayRange = []int{8, 20}
		strategies = []string{"unmanaged", "arq"}
	}
	tab := Table{
		Caption: "cores required to reach E_S <= 0.3 at each way count (interpolated)",
		Columns: append([]string{"strategy"}, func() []string {
			var cs []string
			for _, w := range wayRange {
				cs = append(cs, fmt.Sprintf("%d ways", w))
			}
			return cs
		}()...),
	}
	p := workpool.New(cfg.Parallel)
	futs := make(map[string][][]*workpool.Future[float64], len(strategies))
	for _, name := range strategies {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		cells := make([][]*workpool.Future[float64], len(wayRange))
		for j, w := range wayRange {
			for c := 4; c <= 10; c++ {
				cells[j] = append(cells[j], esAtAsync(p, cfg, f, c, w))
			}
		}
		futs[name] = cells
	}
	for _, name := range strategies {
		row := []string{name}
		for j := range wayRange {
			var pts []entropy.Point
			for c := 4; c <= 10; c++ {
				es, err := futs[name][j][c-4].Wait()
				if err != nil {
					return nil, err
				}
				pts = append(pts, entropy.Point{Resource: float64(c), ES: es})
			}
			curve, err := entropy.NewCurve(pts)
			if err != nil {
				return nil, err
			}
			need, err := curve.ResourceFor(targetES)
			if err != nil || math.IsNaN(need) {
				row = append(row, ">10")
			} else {
				row = append(row, fmt.Sprintf("%.2f", need))
			}
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"paper: with >=10 ways the lines converge; below, ARQ needs ~1 core fewer than PARTIES/CLITE and ~2 fewer than Unmanaged")
	res.Tables = append(res.Tables, tab)
	return res, nil
}
