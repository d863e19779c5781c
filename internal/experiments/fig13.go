package experiments

import (
	"fmt"
	"math"

	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sim"
	"ahq/internal/trace"
)

func init() {
	register(Descriptor{
		ID:    "fig13",
		Title: "Fig. 13: fluctuating Xapian load — entropy timeline and violations",
		Run:   runFig13,
	})
}

// runFig13 reproduces the fluctuating-load evaluation: Xapian driven by the
// 250 s load profile of Fig. 13(a), Moses and Img-dnn at 20%, Stream as the
// BE application, under LC-first, PARTIES and ARQ. It reports per-strategy
// tail-latency violation counts (paper: ARQ 59 vs PARTIES 105), the mean
// entropies, the adjustment counts, and a down-sampled timeline of E_S and
// the shared/isolated core split.
func runFig13(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig13", Title: "Fluctuating load"}
	profile := trace.Fig13Xapian()
	opts := core.Options{
		EpochMs:        500,
		WarmupMs:       0,
		DurationMs:     250_000,
		RecordTimeline: true,
	}
	if cfg.Quick {
		opts.DurationMs = 40_000
	}
	// WarmupMs = 0 would be re-defaulted; run the whole profile as
	// "measured" by asking for a tiny warm-up instead.
	opts.WarmupMs = -1

	summary := Table{
		Caption: "250 s fluctuating Xapian load (Moses/Img-dnn 20%, Stream): totals per strategy",
		Columns: []string{"strategy", "violations", "adjustments", "mean E_LC", "mean E_BE", "mean E_S"},
	}
	var timelines []Table
	p := workpool.New(cfg.Parallel)
	names := []string{"lc-first", "parties", "arq"}
	futs := make([]*workpool.Future[*core.Result], len(names))
	for i, name := range names {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		apps := []sim.AppConfig{
			lcTrace("xapian", profile),
			lcAt("moses", 0.20),
			lcAt("img-dnn", 0.20),
			beApp("stream"),
		}
		futs[i] = runMixAsync(p, cfg, machine.DefaultSpec(), apps, f, opts)
	}
	for i, name := range names {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		summary.AddRow(name, run.TotalViolationEpochs, run.Adjustments,
			run.MeanELC, run.MeanEBE, run.MeanES)

		tl := Table{
			Caption: fmt.Sprintf("%s timeline (10 s resolution)", name),
			Columns: []string{"t(s)", "xapian load", "E_LC", "E_BE", "E_S", "shared cores", "iso:xapian cores", "shared ways"},
		}
		step := 20 // epochs per printed row (10 s)
		if cfg.Quick {
			step = 8
		}
		for i := 0; i < len(run.Timeline); i += step {
			rec := run.Timeline[i]
			sharedCores, isoXapian, sharedWays := 0, 0, 0
			if g := rec.Allocation.SharedRegion(); g != nil {
				sharedCores, sharedWays = g.Cores, g.Ways
			}
			if g := rec.Allocation.IsolatedRegionOf("xapian"); g != nil {
				isoXapian = g.Cores
			}
			es := rec.ES
			if math.IsNaN(es) {
				es = 0
			}
			tl.AddRow(fmt.Sprintf("%.0f", rec.TimeMs/1000),
				fmtPct(profile.At(rec.TimeMs)),
				fmt.Sprintf("%.3f", rec.ELC), fmt.Sprintf("%.3f", rec.EBE), fmt.Sprintf("%.3f", es),
				sharedCores, isoXapian, sharedWays)
		}
		var esSeries []float64
		for _, rec := range run.Timeline {
			esSeries = append(esSeries, rec.ES)
		}
		tl.Freeform = fmt.Sprintf("E_S over time (one glyph per epoch):\n%s", Sparkline(esSeries))
		timelines = append(timelines, tl)
	}
	summary.Notes = append(summary.Notes, "paper: ARQ 59 violations vs PARTIES 105 over 500 epochs")
	res.Tables = append(res.Tables, summary)
	res.Tables = append(res.Tables, timelines...)
	return res, nil
}
