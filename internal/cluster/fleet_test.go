package cluster

// Fleet determinism: the sharded engine must produce identical results
// for the same seed regardless of worker count, shard boundaries, or
// solve-cache sharing. Only the FleetStats cache counters may vary with
// scheduling — everything a caller can print must not.

import (
	"math"
	"reflect"
	"testing"

	"ahq/internal/core"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sim"
)

func fleetConfig(parallel int) Config {
	placement, err := RoundRobin(conformanceApps(24), 8)
	if err != nil {
		panic(err)
	}
	return Config{
		Spec:        machine.DefaultSpec(),
		Seed:        42,
		NewStrategy: func(int) sched.Strategy { return arq.Default() },
		Placement:   placement,
		Parallel:    parallel,
	}
}

// deterministicView strips the scheduling-dependent cache counters,
// leaving exactly the fields an experiment is allowed to print.
func deterministicView(r *Result) Result {
	v := *r
	v.Stats = FleetStats{}
	return v
}

func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	var views []Result
	for _, parallel := range []int{1, 0, 7} {
		res, err := Run(fleetConfig(parallel), quickOpts())
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		views = append(views, deterministicView(res))
	}
	for i := 1; i < len(views); i++ {
		if !reflect.DeepEqual(views[0], views[i]) {
			t.Errorf("fleet result differs between parallel settings 1 and %d", []int{1, 0, 7}[i])
		}
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(fleetConfig(3), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fleetConfig(3), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deterministicView(a), deterministicView(b)) {
		t.Error("identical fleet configs produced different results")
	}
}

// TestRunMatchesPerNodeOracle pins the fleet engine against the
// single-node path it is built from: every node summary must equal — bit
// for bit — what sim.New + core.Run report for that node driven on its
// own. It covers the default per-node seeds (every node its own
// simulation) and a common-random-numbers fleet of eight nodes over two
// templates on one seed, where the engine must simulate each template
// once and replicate the record.
func TestRunMatchesPerNodeOracle(t *testing.T) {
	a := []sim.AppConfig{lcAt("xapian", 0.5), beApp("stream")}
	b := []sim.AppConfig{lcAt("moses", 0.35), lcAt("silo", 0.2), beApp("fluidanimate")}
	crn := Config{
		Spec:        machine.DefaultSpec(),
		Seed:        9,
		NewStrategy: func(int) sched.Strategy { return arq.Default() },
		Placement:   [][]sim.AppConfig{a, b, a, b, a, b, a, b},
		NodeSeed:    func(int) int64 { return 9 },
	}
	for _, tc := range []struct {
		name      string
		cfg       Config
		simulated int
	}{
		{"distinct-seeds", fleetConfig(2), 8},
		{"crn-two-templates", crn, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.NodesSimulated != tc.simulated || res.Stats.NodesRun != 8 {
				t.Errorf("simulated %d of %d nodes, want %d of 8",
					res.Stats.NodesSimulated, res.Stats.NodesRun, tc.simulated)
			}
			for i, apps := range tc.cfg.Placement {
				engine, err := sim.New(sim.Config{Spec: tc.cfg.Spec, Seed: nodeSeed(&tc.cfg, i), Apps: uniquify(apps)})
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Run(engine, tc.cfg.NewStrategy(i), quickOpts())
				if err != nil {
					t.Fatal(err)
				}
				got := res.Summaries[i]
				if got.ELC != want.RunELC || got.EBE != want.RunEBE || got.ES != want.RunES ||
					got.Yield != want.Yield || got.ViolationEpochs != want.TotalViolationEpochs ||
					got.Epochs != want.Epochs || got.Incidents != len(want.Incidents) {
					t.Errorf("node %d summary %+v diverges from its single-node run (E_LC %v E_BE %v E_S %v yield %v viol %d epochs %d incidents %d)",
						i, got, want.RunELC, want.RunEBE, want.RunES, want.Yield,
						want.TotalViolationEpochs, want.Epochs, len(want.Incidents))
				}
			}
		})
	}
}

// TestIdenticalFleetSimulatesOnce: a fleet of N identical nodes on one
// seed is one simulation, and its datacenter E_S is that node's E_S.
func TestIdenticalFleetSimulatesOnce(t *testing.T) {
	const n = 16
	node := []sim.AppConfig{lcAt("xapian", 0.5), lcAt("moses", 0.2), beApp("stream")}
	placement := make([][]sim.AppConfig, n)
	for i := range placement {
		placement[i] = node
	}
	res, err := Run(Config{
		Spec:        machine.DefaultSpec(),
		Seed:        4,
		NewStrategy: func(int) sched.Strategy { return arq.Default() },
		Placement:   placement,
		NodeSeed:    func(int) int64 { return 4 },
		Parallel:    3,
	}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesSimulated != 1 {
		t.Errorf("identical fleet simulated %d times, want 1", res.Stats.NodesSimulated)
	}
	if d := math.Abs(res.GlobalES - res.Summaries[0].ES); d > 1e-12 {
		t.Errorf("global E_S %v differs from node E_S %v by %g", res.GlobalES, res.Summaries[0].ES, d)
	}
}

// TestDedupRespectsDistinctSeeds pins that the default seed policy keeps
// every node its own simulation: distinct seeds mean distinct
// simulations, and grouping must never merge them.
func TestDedupRespectsDistinctSeeds(t *testing.T) {
	res, err := Run(fleetConfig(2), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesSimulated != res.Stats.NodesRun {
		t.Errorf("grouping merged nodes with distinct seeds: %d simulated of %d",
			res.Stats.NodesSimulated, res.Stats.NodesRun)
	}
}
