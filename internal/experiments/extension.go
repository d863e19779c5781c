package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/workload"
)

func init() {
	register(Descriptor{
		ID:    "ext-weighted",
		Title: "Extension: per-application RI weights within the LC class (paper §II-B)",
		Run:   runExtWeighted,
	})
}

// runExtWeighted exercises the extension the paper sketches at the end of
// Section II-B: different importance factors among applications of the
// same class. A contended run is scored three ways — evenly, with Xapian
// weighted as the business-critical service, and with Moses weighted up —
// showing how the same raw measurements produce different system verdicts
// (and which strategy each weighting favours).
func runExtWeighted(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ext-weighted", Title: "Per-application RI weighting"}
	weightings := []struct {
		label   string
		weights map[string]float64
	}{
		{"even", map[string]float64{"xapian": 1, "moses": 1, "img-dnn": 1}},
		{"xapian-critical", map[string]float64{"xapian": 8, "moses": 1, "img-dnn": 1}},
		{"moses-critical", map[string]float64{"xapian": 1, "moses": 8, "img-dnn": 1}},
	}
	tab := Table{
		Caption: "weighted E_LC / E_S per strategy (Xapian 70%, Moses/Img-dnn 20%, Stream)",
		Columns: []string{"strategy"},
	}
	for _, w := range weightings {
		tab.Columns = append(tab.Columns, w.label+" E_LC", w.label+" E_S")
	}
	p := workpool.New(cfg.Parallel)
	names := []string{"parties", "arq"}
	futs := make([]*workpool.Future[*core.Result], len(names))
	for i, name := range names {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		futs[i] = runMixAsync(p, cfg, machine.DefaultSpec(),
			standardMix(0.70, 0.20, 0.20, "stream"), f, core.Options{})
	}
	for i, name := range names {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		row := []string{name}
		var be []entropy.Weighted[entropy.BESample]
		var lcPlain []entropy.LCSample
		for _, a := range run.Apps {
			if a.Spec.Class == workload.LC {
				lcPlain = append(lcPlain, a.LCSample)
			} else if a.MeanIPC > 0 {
				be = append(be, entropy.Weighted[entropy.BESample]{Sample: a.BESample, Weight: 1})
			}
		}
		for _, w := range weightings {
			var lc []entropy.Weighted[entropy.LCSample]
			for _, s := range lcPlain {
				lc = append(lc, entropy.Weighted[entropy.LCSample]{Sample: s, Weight: w.weights[s.Name]})
			}
			elc, _, es, err := entropy.WeightedSystem{RI: entropy.DefaultRI}.Compute(lc, be)
			if err != nil {
				return nil, fmt.Errorf("weighting %s: %w", w.label, err)
			}
			row = append(row, fmt.Sprintf("%.3f", elc), fmt.Sprintf("%.3f", es))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"with equal weights this reduces exactly to Eq. 5/Eq. 7 (tested in internal/entropy)")
	res.Tables = append(res.Tables, tab)
	return res, nil
}
