package clite

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/workload"
)

func specs() []sched.AppSpec {
	return []sched.AppSpec{
		{Name: "xapian", Class: workload.LC, QoSTargetMs: 4.22, IdealP95Ms: 2.77},
		{Name: "moses", Class: workload.LC, QoSTargetMs: 10.53, IdealP95Ms: 2.80},
		{Name: "stream", Class: workload.BE, SoloIPC: 0.6},
	}
}

func appNames() []string { return []string{"xapian", "moses", "stream"} }

func newTest() *Strategy {
	s := Default()
	s.Init(machine.DefaultSpec(), specs())
	return s
}

func TestInitIsValidPartition(t *testing.T) {
	s := Default()
	alloc := s.Init(machine.DefaultSpec(), specs())
	if err := alloc.Validate(machine.DefaultSpec(), appNames()); err != nil {
		t.Fatal(err)
	}
	if alloc.SharedRegion() != nil {
		t.Error("CLITE must partition strictly")
	}
}

func TestRandomConfigsAlwaysValid(t *testing.T) {
	s := newTest()
	for i := 0; i < 500; i++ {
		cfg := s.randomConfig()
		alloc := s.decodeAlloc(cfg)
		if err := alloc.Validate(machine.DefaultSpec(), appNames()); err != nil {
			t.Fatalf("random config %d invalid: %v\n%s", i, err, alloc)
		}
		n := s.nApps()
		for r := 0; r < machine.NumResources; r++ {
			sum := 0
			for a := 0; a < n; a++ {
				sum += cfg[r*n+a]
			}
			if sum != machine.DefaultSpec().Capacity(machine.Resource(r)) {
				t.Fatalf("config %d: resource %d sums to %d", i, r, sum)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := newTest()
	cfg := s.randomConfig()
	alloc := s.decodeAlloc(cfg)
	back := s.encodeAlloc(alloc)
	if len(back) != len(cfg) {
		t.Fatalf("length mismatch: %d vs %d", len(back), len(cfg))
	}
	for i := range cfg {
		if back[i] != cfg[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, cfg, back)
		}
	}
}

func TestUnpointProducesValidConfigs(t *testing.T) {
	s := newTest()
	f := func(raw []uint16) bool {
		x := make([]float64, s.dim())
		for i := range x {
			if i < len(raw) {
				x[i] = float64(raw[i]%1000) / 999
			}
		}
		cfg := s.unpoint(x)
		n := s.nApps()
		for r := 0; r < machine.NumResources; r++ {
			sum := 0
			for a := 0; a < n; a++ {
				v := cfg[r*n+a]
				if v < 1 {
					return false
				}
				sum += v
			}
			if sum != machine.DefaultSpec().Capacity(machine.Resource(r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPerturbKeepsInvariants(t *testing.T) {
	s := newTest()
	base := s.randomConfig()
	p := make([]int, len(base))
	for i := 0; i < 200; i++ {
		s.perturbInto(p, base)
		alloc := s.decodeAlloc(p)
		if err := alloc.Validate(machine.DefaultSpec(), appNames()); err != nil {
			t.Fatalf("perturbed config invalid: %v", err)
		}
	}
}

func TestObjectiveOrdering(t *testing.T) {
	s := newTest()
	mk := func(xp95, ipc float64) sched.Telemetry {
		return sched.Telemetry{Apps: []sched.AppWindow{
			{Spec: specs()[0], P95Ms: xp95},
			{Spec: specs()[1], P95Ms: 3.0},
			{Spec: specs()[2], IPC: ipc},
		}}
	}
	okLow, _ := s.objective(mk(3.0, 0.1))
	okHigh, _ := s.objective(mk(3.0, 0.5))
	bad, violating := s.objective(mk(9.0, 0.6))
	if !violating {
		t.Error("violation not flagged")
	}
	if !(bad < okLow && okLow < okHigh) {
		t.Errorf("objective ordering wrong: violating %.3f, ok-low %.3f, ok-high %.3f",
			bad, okLow, okHigh)
	}
	if bad >= 1 {
		t.Errorf("violating score %.3f should be < 1", bad)
	}
	if okLow < 1 {
		t.Errorf("feasible score %.3f should be >= 1", okLow)
	}
}

func TestDecideAlwaysReturnsValidAllocations(t *testing.T) {
	s := Default()
	cur := s.Init(machine.DefaultSpec(), specs())
	for epoch := 0; epoch < 60; epoch++ {
		// Feed plausible telemetry: violate when xapian's partition is
		// small, satisfy otherwise.
		x := cur.IsolatedRegionOf("xapian")
		p95 := 3.0
		if x != nil && x.Cores < 3 {
			p95 = 6.0
		}
		tel := sched.Telemetry{
			TimeMs: float64(epoch) * 500,
			Epoch:  epoch,
			Apps: []sched.AppWindow{
				{Spec: specs()[0], P95Ms: p95},
				{Spec: specs()[1], P95Ms: 3.0},
				{Spec: specs()[2], IPC: 0.3},
			},
		}
		next := s.Decide(tel, cur)
		if err := next.Validate(machine.DefaultSpec(), appNames()); err != nil {
			t.Fatalf("epoch %d: invalid allocation: %v\n%s", epoch, err, next)
		}
		cur = next
	}
}

func TestConvergesToExploitation(t *testing.T) {
	s := Default()
	cur := s.Init(machine.DefaultSpec(), specs())
	// Constant feasible telemetry: after the budget the strategy should
	// stop moving.
	stable := 0
	for epoch := 0; epoch < 40; epoch++ {
		tel := sched.Telemetry{
			TimeMs: float64(epoch) * 500,
			Epoch:  epoch,
			Apps: []sched.AppWindow{
				{Spec: specs()[0], P95Ms: 3.0},
				{Spec: specs()[1], P95Ms: 3.0},
				{Spec: specs()[2], IPC: 0.3},
			},
		}
		next := s.Decide(tel, cur)
		if next.Equal(cur) {
			stable++
		} else {
			stable = 0
		}
		cur = next
	}
	if stable < 5 {
		t.Errorf("CLITE did not settle into exploitation (stable tail %d)", stable)
	}
}

func TestObjectiveIgnoresIdleApps(t *testing.T) {
	s := newTest()
	telIdle := sched.Telemetry{Apps: []sched.AppWindow{
		{Spec: specs()[0], P95Ms: math.NaN()},
		{Spec: specs()[1], P95Ms: 3.0},
		{Spec: specs()[2], IPC: 0.3},
	}}
	score, violating := s.objective(telIdle)
	if violating {
		t.Error("idle app flagged as violating")
	}
	if score < 1 {
		t.Errorf("score %.3f should be feasible", score)
	}
}

func TestInitialConfigsValid(t *testing.T) {
	s := newTest()
	for i := 0; i < 8; i++ {
		cfg := s.initialConfig(i)
		alloc := s.decodeAlloc(cfg)
		if err := alloc.Validate(machine.DefaultSpec(), appNames()); err != nil {
			t.Fatalf("initial config %d invalid: %v\n%s", i, err, alloc)
		}
		n := s.nApps()
		for r := 0; r < machine.NumResources; r++ {
			sum := 0
			for a := 0; a < n; a++ {
				sum += cfg[r*n+a]
			}
			if sum != machine.DefaultSpec().Capacity(machine.Resource(r)) {
				t.Fatalf("initial config %d: resource %d sums to %d", i, r, sum)
			}
		}
	}
	// The LC-weighted bootstrap gives LC applications more than BE ones.
	cfg := s.initialConfig(1)
	n := s.nApps()
	if cfg[0] <= cfg[n-1] { // cores: xapian vs stream
		t.Errorf("LC-weighted bootstrap not LC-weighted: %v", cfg[:n])
	}
}

// TestSolverFailureDegradesToHold is the regression test for the removed
// Init panic: when the optimizer cannot be built the strategy must hold its
// fallback partition through every Decide instead of crashing the
// controller, and a later successful Init must clear the degraded state.
func TestSolverFailureDegradesToHold(t *testing.T) {
	s := newTest()
	alloc := machine.EvenPartition(machine.DefaultSpec(),
		[]string{"xapian", "moses"}, []string{"stream"})
	// Simulate bayesopt.NewOptimizer failing during Init.
	s.opt = nil
	s.infeasible = true
	tel := sched.Telemetry{Apps: []sched.AppWindow{
		{Spec: specs()[0], P95Ms: 9.0},
		{Spec: specs()[1], P95Ms: 3.0},
		{Spec: specs()[2], IPC: 0.4},
	}}
	for epoch := 0; epoch < 5; epoch++ {
		tel.Epoch = epoch
		got := s.Decide(tel, alloc)
		if err := got.Validate(machine.DefaultSpec(), appNames()); err != nil {
			t.Fatalf("epoch %d: degraded Decide returned invalid allocation: %v", epoch, err)
		}
		if !reflect.DeepEqual(got, alloc) {
			t.Fatalf("epoch %d: degraded Decide did not hold the current allocation", epoch)
		}
	}
	// Re-initialising on a sane node recovers: the stale degraded flag
	// must not leak into the fresh run.
	s.Init(machine.DefaultSpec(), specs())
	if s.infeasible || s.opt == nil {
		t.Error("Init did not clear the degraded state")
	}
}

// TestInfeasibleSpecHoldsPartition: a node with fewer units than
// applications cannot be strictly partitioned; Init must mark the run
// infeasible (not panic) and Decide must hold.
func TestInfeasibleSpecHoldsPartition(t *testing.T) {
	s := Default()
	spec := machine.Spec{Cores: 2, LLCWays: 2, MemBWUnits: 2, MemBWGBps: 10}
	alloc := s.Init(spec, specs())
	if !s.infeasible {
		t.Fatal("2-unit node with 3 applications not marked infeasible")
	}
	got := s.Decide(sched.Telemetry{Apps: []sched.AppWindow{
		{Spec: specs()[0], P95Ms: 9.0},
		{Spec: specs()[1], P95Ms: 3.0},
		{Spec: specs()[2], IPC: 0.4},
	}}, alloc)
	if !reflect.DeepEqual(got, alloc) {
		t.Error("infeasible Decide did not hold the current allocation")
	}
}
