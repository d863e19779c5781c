package core

import (
	"math"
	"testing"

	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/clite"
	"ahq/internal/sched/parties"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// These integration tests drive the full stack — engine, controller,
// entropy, strategy — and assert the paper's qualitative outcomes, the
// behaviours the reproduction stands on.

func mix(t *testing.T, seed int64, xapianLoad float64, be string) *sim.Engine {
	t.Helper()
	x, m, i := workload.MustLC("xapian"), workload.MustLC("moses"), workload.MustLC("img-dnn")
	b := workload.MustBE(be)
	e, err := sim.New(sim.Config{
		Spec: machine.DefaultSpec(),
		Seed: seed,
		Apps: []sim.AppConfig{
			{LC: &x, Load: trace.Constant(xapianLoad)},
			{LC: &m, Load: trace.Constant(0.2)},
			{LC: &i, Load: trace.Constant(0.2)},
			{BE: &b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func opts() Options { return Options{WarmupMs: 6_000, DurationMs: 12_000} }

// TestEpochEntropyDecomposes: the paper's Eq. 7 on every epoch, not just
// on run averages — each EpochRecord's E_LC and E_BE lie in [0,1] and its
// E_S is exactly RI·E_LC + (1−RI)·E_BE, for every managed strategy, two RIs
// and a light and a heavy Xapian load.
func TestEpochEntropyDecomposes(t *testing.T) {
	strategies := []struct {
		name string
		mk   func() sched.Strategy
	}{
		{"arq", func() sched.Strategy { return arq.Default() }},
		{"parties", func() sched.Strategy { return parties.Default() }},
		{"clite", func() sched.Strategy { return clite.Default() }},
	}
	for _, st := range strategies {
		for _, ri := range []float64{0.6, 0.8} {
			for _, load := range []float64{0.2, 0.8} {
				o := opts()
				o.RI, o.RecordTimeline = ri, true
				res, err := Run(mix(t, 11, load, "stream"), st.mk(), o)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Timeline) == 0 {
					t.Fatalf("%s ri=%.1f load=%.1f: empty timeline", st.name, ri, load)
				}
				for i, rec := range res.Timeline {
					for _, v := range []float64{rec.ELC, rec.EBE, rec.ES} {
						if !(v >= 0 && v <= 1) {
							t.Fatalf("%s ri=%.1f load=%.1f epoch %d: entropy %g outside [0,1] (E_LC %g, E_BE %g, E_S %g)",
								st.name, ri, load, i, v, rec.ELC, rec.EBE, rec.ES)
						}
					}
					if want := ri*rec.ELC + (1-ri)*rec.EBE; math.Abs(rec.ES-want) > 1e-12 {
						t.Fatalf("%s ri=%.1f load=%.1f epoch %d: E_S %g, want RI·E_LC+(1−RI)·E_BE = %g",
							st.name, ri, load, i, rec.ES, want)
					}
				}
			}
		}
	}
}

// TestARQLowLoadKeepsSharing: at low load ARQ should stay close to its
// all-shared initial allocation (Fig. 5's left half) — no isolated cores
// hoarded, BE IPC close to LC-first's.
func TestARQLowLoadKeepsSharing(t *testing.T) {
	res, err := Run(mix(t, 3, 0.10, "fluidanimate"), arq.Default(), opts())
	if err != nil {
		t.Fatal(err)
	}
	shared := res.FinalAllocation.SharedRegion()
	if shared == nil {
		t.Fatal("ARQ lost its shared region")
	}
	if shared.Cores < 7 {
		t.Errorf("at 10%% load ARQ pooled only %d cores; expected most of the node shared", shared.Cores)
	}
	if res.MeanELC > 0.1 {
		t.Errorf("E_LC = %.3f at low load", res.MeanELC)
	}
}

// TestARQHighLoadIsolatesViolator: at 90% Xapian load with Stream, ARQ
// must grow Xapian's isolated region (Fig. 6).
func TestARQHighLoadIsolatesViolator(t *testing.T) {
	res, err := Run(mix(t, 3, 0.90, "stream"), arq.Default(), opts())
	if err != nil {
		t.Fatal(err)
	}
	iso := res.FinalAllocation.IsolatedRegionOf("xapian")
	if iso == nil || iso.Empty() {
		t.Fatalf("ARQ did not isolate the pressed application: %s", res.FinalAllocation)
	}
	if iso.Cores+iso.Ways < 3 {
		t.Errorf("xapian isolation too small: %+v", iso)
	}
}

// TestARQBeatsPartiesOnStream: the headline comparison on the severe mix.
func TestARQBeatsPartiesOnStream(t *testing.T) {
	arqRes, err := Run(mix(t, 7, 0.50, "stream"), arq.Default(), opts())
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Run(mix(t, 7, 0.50, "stream"), parties.Default(), opts())
	if err != nil {
		t.Fatal(err)
	}
	if arqRes.MeanES >= parRes.MeanES {
		t.Errorf("ARQ E_S %.3f >= PARTIES %.3f", arqRes.MeanES, parRes.MeanES)
	}
	// ARQ's BE throughput advantage at non-extreme load.
	var arqIPC, parIPC float64
	for _, a := range arqRes.Apps {
		if a.Spec.Class == workload.BE {
			arqIPC = a.MeanIPC
		}
	}
	for _, a := range parRes.Apps {
		if a.Spec.Class == workload.BE {
			parIPC = a.MeanIPC
		}
	}
	if arqIPC <= parIPC {
		t.Errorf("ARQ BE IPC %.3f <= PARTIES %.3f", arqIPC, parIPC)
	}
}

// TestUnmanagedDegradesWithLoad: property ③'s flip side — without
// management, entropy rises steeply with load.
func TestUnmanagedDegradesWithLoad(t *testing.T) {
	low, err := Run(mix(t, 5, 0.10, "fluidanimate"), static.Unmanaged{}, opts())
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(mix(t, 5, 0.90, "fluidanimate"), static.Unmanaged{}, opts())
	if err != nil {
		t.Fatal(err)
	}
	if high.MeanELC <= low.MeanELC+0.05 {
		t.Errorf("Unmanaged E_LC barely moved with load: %.3f -> %.3f", low.MeanELC, high.MeanELC)
	}
}

// TestLCFirstTradesBEForLC: strict priority lowers E_LC but raises E_BE
// versus CFS.
func TestLCFirstTradesBEForLC(t *testing.T) {
	cfs, err := Run(mix(t, 9, 0.70, "fluidanimate"), static.Unmanaged{}, opts())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(mix(t, 9, 0.70, "fluidanimate"), static.LCFirst{}, opts())
	if err != nil {
		t.Fatal(err)
	}
	if rt.MeanELC >= cfs.MeanELC {
		t.Errorf("LC-first E_LC %.3f >= Unmanaged %.3f", rt.MeanELC, cfs.MeanELC)
	}
	if rt.MeanEBE < cfs.MeanEBE-0.02 {
		t.Errorf("LC-first E_BE %.3f noticeably below Unmanaged %.3f", rt.MeanEBE, cfs.MeanEBE)
	}
}

// TestEntropyPropertySchedulingSensitivity: the paper's property ③ —
// with resources fixed, a strategy that reduces contention must lower the
// measured E_S. On the scarce 6-core node (the Fig. 3(a) regime), ARQ must
// land well below Unmanaged.
func TestEntropyPropertySchedulingSensitivity(t *testing.T) {
	spec := machine.DefaultSpec().Shrink(6, 20)
	build := func() *sim.Engine {
		x, m, i := workload.MustLC("xapian"), workload.MustLC("moses"), workload.MustLC("img-dnn")
		b := workload.MustBE("fluidanimate")
		e, err := sim.New(sim.Config{
			Spec: spec,
			Seed: 21,
			Apps: []sim.AppConfig{
				{LC: &x, Load: trace.Constant(0.2)},
				{LC: &m, Load: trace.Constant(0.2)},
				{LC: &i, Load: trace.Constant(0.2)},
				{BE: &b},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	un, err := Run(build(), static.Unmanaged{}, opts())
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Run(build(), arq.Default(), opts())
	if err != nil {
		t.Fatal(err)
	}
	if ar.MeanES >= un.MeanES-0.05 {
		t.Errorf("property ③: ARQ E_S %.3f not clearly below Unmanaged %.3f on the scarce node",
			ar.MeanES, un.MeanES)
	}
}

// TestEntropyPropertyResourceSensitivity: property ② end-to-end — more
// cores never raise the measured E_S by more than noise.
func TestEntropyPropertyResourceSensitivity(t *testing.T) {
	var prev float64 = 2
	for _, cores := range []int{5, 7, 9} {
		spec := machine.DefaultSpec().Shrink(cores, 20)
		x, m := workload.MustLC("xapian"), workload.MustLC("moses")
		b := workload.MustBE("fluidanimate")
		e, err := sim.New(sim.Config{
			Spec: spec,
			Seed: 13,
			Apps: []sim.AppConfig{
				{LC: &x, Load: trace.Constant(0.3)},
				{LC: &m, Load: trace.Constant(0.3)},
				{BE: &b},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(e, static.Unmanaged{}, opts())
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanES > prev+0.03 {
			t.Errorf("E_S rose with resources: %.3f at %d cores (prev %.3f)", res.MeanES, cores, prev)
		}
		prev = res.MeanES
	}
}
