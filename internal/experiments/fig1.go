package experiments

import (
	"ahq/internal/core"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sched"
	"ahq/internal/sched/static"
)

func init() {
	register(Descriptor{
		ID:    "fig1",
		Title: "Fig. 1: two hand-built strategies, A vs B — E_S disambiguates",
		Run:   runFig1,
	})
}

// runFig1 reproduces the motivating example of Section II-C: two fixed
// allocations for Xapian/Moses/Img-dnn + Fluidanimate. Strategy B isolates
// everything with a large Img-dnn partition (its QoS is comfortably met but
// the BE application starves); strategy A shares most of the node (Img-dnn
// may exceed its target by a few percent while the BE application's IPC
// more than doubles). With 7 per-application numbers the two are hard to
// rank; E_S ranks them directly and prefers A.
func runFig1(cfg RunConfig) (*Result, error) {
	spec := machine.DefaultSpec()
	apps := standardMix(0.20, 0.20, 0.20, "fluidanimate")

	// Strategy A: modest isolated slices; the BE application shares a
	// large pool with the LC applications.
	strategyA := machine.Allocation{Regions: []machine.Region{
		{Name: "iso:xapian", Kind: machine.Isolated, Cores: 1, Ways: 3, BWUnits: 1, Apps: []string{"xapian"}},
		{Name: "iso:moses", Kind: machine.Isolated, Cores: 1, Ways: 2, BWUnits: 1, Apps: []string{"moses"}},
		{Name: "iso:img-dnn", Kind: machine.Isolated, Cores: 1, Ways: 2, BWUnits: 1, Apps: []string{"img-dnn"}},
		{Name: "shared", Kind: machine.Shared, Policy: machine.LCPriority, Cores: 7, Ways: 13, BWUnits: 7,
			Apps: []string{"fluidanimate", "img-dnn", "moses", "xapian"}},
	}}
	// Strategy B: strict isolation, big LC partitions, BE squeezed.
	strategyB := machine.Allocation{Regions: []machine.Region{
		{Name: "iso:xapian", Kind: machine.Isolated, Cores: 3, Ways: 5, BWUnits: 3, Apps: []string{"xapian"}},
		{Name: "iso:moses", Kind: machine.Isolated, Cores: 3, Ways: 5, BWUnits: 3, Apps: []string{"moses"}},
		{Name: "iso:img-dnn", Kind: machine.Isolated, Cores: 3, Ways: 8, BWUnits: 3, Apps: []string{"img-dnn"}},
		{Name: "iso:fluidanimate", Kind: machine.Isolated, Cores: 1, Ways: 2, BWUnits: 1, Apps: []string{"fluidanimate"}},
	}}

	res := &Result{ID: "fig1", Title: "Strategy A vs strategy B"}
	tab := Table{
		Caption: "Xapian/Moses/Img-dnn (20%) + Fluidanimate under two fixed allocations",
		Columns: []string{"strategy", "xapian p95", "moses p95", "img-dnn p95", "fluid IPC", "E_LC", "E_BE", "E_S"},
	}
	cases := []struct {
		label string
		alloc machine.Allocation
	}{
		{"A (partial sharing)", strategyA},
		{"B (strict isolation)", strategyB},
	}
	p := workpool.New(cfg.Parallel)
	futs := make([]*workpool.Future[*core.Result], len(cases))
	for i, c := range cases {
		f := StrategyFactory{Name: c.label, New: func(int64) sched.Strategy {
			return static.Fixed{Label: c.label, Alloc: c.alloc}
		}}
		futs[i] = runMixAsync(p, cfg, spec, apps, f, core.Options{})
	}
	for i, c := range cases {
		run, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		tab.AddRow(c.label,
			fmtMs(appP95(run, "xapian")), fmtMs(appP95(run, "moses")), fmtMs(appP95(run, "img-dnn")),
			appIPC(run, "fluidanimate"),
			run.RunELC, run.RunEBE, run.RunES)
	}
	tab.Notes = append(tab.Notes,
		"paper: B fixes Img-dnn's small (4.4% < 5% elasticity) violation but costs the BE app 128.7% IPC; E_S prefers A",
	)
	res.Tables = append(res.Tables, tab)
	return res, nil
}
