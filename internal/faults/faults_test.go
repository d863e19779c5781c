package faults_test

import (
	"reflect"
	"testing"

	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched/arq"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// planRoundTripCases pair plan specs with their canonical rendering. They
// also seed FuzzParse.
var planRoundTripCases = []struct {
	spec string
	want string
}{
	{"", "-"},
	{"-", "-"},
	{"none", "-"},
	{"apply@5", "apply@5"},
	{"drop@8x3", "drop@8x3"},
	{"apply@10+", "apply@10+"},
	{" panic@2 , nan@4x2 ", "panic@2,nan@4x2"},
	// Canonical ordering: by epoch first, kind second.
	{"stale@7,drop@3,apply@3", "apply@3,drop@3,stale@7"},
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, c := range planRoundTripCases {
		p, err := faults.Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := p.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.spec, got, c.want)
		}
		// String output must itself parse back to the same plan.
		again, err := faults.Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Errorf("round trip of %q: %+v != %+v", c.spec, p, again)
		}
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"apply", "apply@", "apply@-1", "apply@x", "frob@3",
		"drop@2x0", "drop@2xq", "apply@2.5",
	} {
		if _, err := faults.Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

// FuzzParse: whatever Parse accepts must render to a spec that parses
// again and renders identically — String is the canonical form.
func FuzzParse(f *testing.F) {
	for _, c := range planRoundTripCases {
		f.Add(c.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := faults.Parse(spec)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := faults.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q does not parse: %v", spec, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q) renders %q, which re-renders as %q", spec, canon, got)
		}
	})
}

func TestEventActiveAt(t *testing.T) {
	burst := faults.Event{Kind: faults.ApplyFail, Epoch: 4, Epochs: 3}
	for epoch, want := range map[int]bool{3: false, 4: true, 6: true, 7: false} {
		if got := burst.ActiveAt(epoch); got != want {
			t.Errorf("burst.ActiveAt(%d) = %v, want %v", epoch, got, want)
		}
	}
	persist := faults.Event{Kind: faults.ApplyFail, Epoch: 4, Persistent: true}
	for epoch, want := range map[int]bool{3: false, 4: true, 1000: true} {
		if got := persist.ActiveAt(epoch); got != want {
			t.Errorf("persist.ActiveAt(%d) = %v, want %v", epoch, got, want)
		}
	}
}

func TestGenerateIsSeedDeterministic(t *testing.T) {
	a, b := faults.Generate(42, 40), faults.Generate(42, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	// A generated plan must survive the spec round trip too.
	back, err := faults.Parse(a.String())
	if err != nil {
		t.Fatalf("Parse(Generate(...)): %v", err)
	}
	if a.String() != back.String() {
		t.Fatalf("generated plan not canonical: %q vs %q", a, back)
	}
	if c := faults.Generate(43, 40); reflect.DeepEqual(a, c) && !a.Empty() {
		t.Errorf("seeds 42 and 43 produced identical non-empty plans: %s", a)
	}
}

func testEngine(t *testing.T, seed int64) *sim.Engine {
	t.Helper()
	x, m := workload.MustLC("xapian"), workload.MustLC("moses")
	b := workload.MustBE("stream")
	e, err := sim.New(sim.Config{
		Spec: machine.DefaultSpec(),
		Seed: seed,
		Apps: []sim.AppConfig{
			{LC: &x, Load: trace.Constant(0.4)},
			{LC: &m, Load: trace.Constant(0.2)},
			{BE: &b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func quickOpts() core.Options {
	return core.Options{EpochMs: 500, WarmupMs: 2_000, DurationMs: 6_000}
}

// TestEmptyPlanIsNoOp: with no faults planned, a wrapped run must equal the
// unwrapped run exactly — the zero-fault path is a true pass-through.
func TestEmptyPlanIsNoOp(t *testing.T) {
	bare, err := core.Run(testEngine(t, 7), arq.New(arq.Config{}), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(&faults.Plan{})
	wrapped, err := core.Run(inj.Engine(testEngine(t, 7)),
		inj.Strategy(arq.New(arq.Config{})), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Total() != 0 {
		t.Fatalf("empty plan injected faults: %+v", inj.Stats())
	}
	if !reflect.DeepEqual(bare, wrapped) {
		t.Errorf("wrapped zero-fault run differs from bare run:\n%+v\n%+v", bare, wrapped)
	}
}

// TestCombinedPlanSurvivesAndAccounts is the PR's acceptance scenario: one
// plan combining a strategy panic, a persistent apply failure and a
// telemetry dropout. The run must complete without error, end on a valid
// allocation, and report exactly the injected incidents; and it must be
// reproducible run to run.
func TestCombinedPlanSurvivesAndAccounts(t *testing.T) {
	plan, err := faults.Parse("panic@4x2,apply@6+,drop@8")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*core.Result, faults.Stats) {
		inj := faults.NewInjector(plan)
		res, err := core.Run(inj.Engine(testEngine(t, 11)),
			inj.Strategy(arq.New(arq.Config{})), quickOpts())
		if err != nil {
			t.Fatalf("Run under combined plan: %v", err)
		}
		return res, inj.Stats()
	}
	res, stats := run()

	if err := res.FinalAllocation.Validate(machine.DefaultSpec(),
		[]string{"xapian", "moses", "stream"}); err != nil {
		t.Errorf("final allocation invalid after faults: %v", err)
	}
	if stats.StrategyPanics != 2 {
		t.Errorf("StrategyPanics = %d, want 2", stats.StrategyPanics)
	}
	if stats.TelemetryDrops != 1 {
		t.Errorf("TelemetryDrops = %d, want 1", stats.TelemetryDrops)
	}
	if stats.ApplyFailures == 0 {
		t.Error("persistent apply fault never fired")
	}
	if got := res.CountIncidents(core.IncidentStrategyPanic); got != stats.StrategyPanics {
		t.Errorf("panic incidents = %d, injected %d", got, stats.StrategyPanics)
	}
	if got := res.CountIncidents(core.IncidentTelemetryDropped); got != stats.TelemetryDrops {
		t.Errorf("drop incidents = %d, injected %d", got, stats.TelemetryDrops)
	}
	applyIncidents := res.CountIncidents(core.IncidentAllocationRejected) +
		res.CountIncidents(core.IncidentFallbackRejected)
	if applyIncidents != stats.ApplyFailures {
		t.Errorf("apply incidents = %d, injected %d", applyIncidents, stats.ApplyFailures)
	}
	if res.DegradedEpochs == 0 {
		t.Error("DegradedEpochs = 0 under a three-way fault plan")
	}

	res2, stats2 := run()
	if !reflect.DeepEqual(res, res2) {
		t.Error("identical seeded chaos runs differ")
	}
	if stats != stats2 {
		t.Errorf("identical runs injected different faults: %+v vs %+v", stats, stats2)
	}
}

// TestStaleReplayIsDetected: a stale epoch replays the previous window with
// a non-advancing clock, which the controller must flag and hold through.
func TestStaleReplayIsDetected(t *testing.T) {
	plan, err := faults.Parse("stale@5,nan@7")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan)
	opts := quickOpts()
	opts.RecordTimeline = true
	res, err := core.Run(inj.Engine(testEngine(t, 3)),
		inj.Strategy(arq.New(arq.Config{})), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Stats().TelemetryStales; got != 1 {
		t.Fatalf("TelemetryStales = %d, want 1", got)
	}
	if got := res.CountIncidents(core.IncidentTelemetryStale); got != 1 {
		t.Errorf("stale incidents = %d, want 1", got)
	}
	if got := res.CountIncidents(core.IncidentTelemetryCorrupt); got != 1 {
		t.Errorf("corrupt incidents = %d, want 1", got)
	}
	// Timeline index is the epoch number (warm-up epochs are recorded too).
	for epoch, rec := range res.Timeline {
		if wantOK := epoch != 5 && epoch != 7; rec.TelemetryOK != wantOK {
			t.Errorf("epoch %d: TelemetryOK = %v, want %v", epoch, rec.TelemetryOK, wantOK)
		}
	}
}

// TestStaleBeforeFirstWindowInjectsNothing: with nothing to replay, a
// stale event on epoch 0 must not fire (and must not be counted).
func TestStaleBeforeFirstWindowInjectsNothing(t *testing.T) {
	plan, err := faults.Parse("stale@0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan)
	res, err := core.Run(inj.Engine(testEngine(t, 5)),
		inj.Strategy(arq.New(arq.Config{})), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Stats().Total(); got != 0 {
		t.Errorf("injected %d faults, want 0", got)
	}
	if got := len(res.Incidents); got != 0 {
		t.Errorf("incidents = %d, want 0", got)
	}
}

// TestEngineApplyFailsAtPlannedEpochs: SetAllocation fails exactly in the
// plan's epochs, which the engine counts by RunWindow calls — apply@2x2
// fails after the 3rd and 4th window, never before the first.
func TestEngineApplyFailsAtPlannedEpochs(t *testing.T) {
	plan, err := faults.Parse("apply@2x2")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan)
	eng := inj.Engine(testEngine(t, 9))
	alloc := machine.AllShared(machine.DefaultSpec(), machine.FairShare,
		[]string{"xapian", "moses", "stream"})
	for windows := 0; windows <= 5; windows++ {
		if windows > 0 {
			eng.RunWindow(500)
		}
		err := eng.SetAllocation(alloc)
		if wantFail := windows == 3 || windows == 4; (err != nil) != wantFail {
			t.Errorf("after %d windows: SetAllocation err = %v, want failure=%v", windows, err, wantFail)
		}
	}
	if got := inj.Stats().ApplyFailures; got != 2 {
		t.Errorf("ApplyFailures = %d, want 2", got)
	}
}
