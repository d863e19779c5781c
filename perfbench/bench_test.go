package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ahq/internal/faults"
)

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 12345} {
		if a, b := gridMixSpecs(seed, gridMixes), gridMixSpecs(seed, gridMixes); !reflect.DeepEqual(a, b) {
			t.Errorf("gridMixSpecs(%d) differs between calls", seed)
		}
		if a, b := fleetPopulation(seed, fleetNodes), fleetPopulation(seed, fleetNodes); !reflect.DeepEqual(a, b) {
			t.Errorf("fleetPopulation(%d) differs between calls", seed)
		}
	}
	if reflect.DeepEqual(gridMixSpecs(1, gridMixes), gridMixSpecs(2, gridMixes)) {
		t.Error("gridMixSpecs ignores the seed")
	}
	if reflect.DeepEqual(fleetPopulation(1, fleetNodes), fleetPopulation(2, fleetNodes)) {
		t.Error("fleetPopulation ignores the seed")
	}
}

func TestGeneratedInputsAreInRange(t *testing.T) {
	for _, m := range gridMixSpecs(7, 200) {
		if m.Xapian < 0.0999 || m.Xapian > 0.9001 || m.Moses < 0.1999 || m.Moses > 0.4001 || m.ImgDNN < 0.1999 || m.ImgDNN > 0.4001 {
			t.Fatalf("mix loads out of range: %+v", m)
		}
	}
	pop := fleetPopulation(7, fleetNodes)
	if len(pop) != fleetNodes*5/2 {
		t.Fatalf("population has %d apps, want %d", len(pop), fleetNodes*5/2)
	}
	lc := 0
	for _, a := range pop {
		if a.Load > 0 {
			lc++
		}
	}
	if share := float64(lc) / float64(len(pop)); share < 0.65 || share > 0.75 {
		t.Errorf("LC share %.3f, want about 0.7", share)
	}
	for _, p := range chaosPlans {
		if _, err := faults.ParseFleet(p.Spec); err != nil {
			t.Errorf("chaos plan %s: %v", p.Label, err)
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi int64
		ivs    []interval
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, []interval{{10, 20}, {30, 40}}, 20},
		{"overlapping across goroutines", 0, 100, []interval{{10, 50}, {30, 70}, {60, 80}}, 70},
		{"nested", 0, 100, []interval{{10, 90}, {20, 30}, {40, 50}}, 80},
		{"unsorted and touching", 0, 100, []interval{{50, 60}, {10, 20}, {20, 30}}, 30},
		{"clipped to the parent", 10, 50, []interval{{0, 20}, {40, 90}}, 20},
		{"outside the parent", 10, 50, []interval{{60, 90}, {0, 5}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAggregateSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "cluster.run", start: 0, end: 100, id: 1},
		// Two workers decide concurrently: 60 ns of child time, 40 ns covered twice.
		{name: "sched.arq.decide", start: 10, end: 50, id: 2, parent: 1},
		{name: "sched.arq.decide", start: 30, end: 70, id: 3, parent: 1},
	}
	st := aggregate(spans)
	run := st["cluster.run"]
	if run.calls != 1 || run.totalMs != 100/1e6 {
		t.Fatalf("cluster.run = %+v", run)
	}
	if want := 40 / 1e6; run.selfMs != want {
		t.Errorf("self = %g ms, want %g ms (100 - union 60)", run.selfMs, want)
	}
	if d := st["sched.arq.decide"]; d.calls != 2 || d.selfMs != d.totalMs {
		t.Errorf("leaf spans: %+v, want self == total", d)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // reversed: tail must sort
	}
	return out
}

func TestTailReportsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		ceiling float64
		pct     float64
		value   float64
		ok      bool
	}{
		{10000, 100, 99.9, 9990, true},
		{10000, 99, 99, 9900, true},
		{1000, 100, 99, 990, true},
		{999, 100, 90, 900, true},
		{100, 100, 90, 90, true},
		{99, 100, 50, 50, true},
		{20, 100, 50, 10, true},
		{19, 100, 0, 0, false},
		{0, 100, 0, 0, false},
	}
	for _, c := range cases {
		pct, v, n, ok := tail(seq(c.n), c.ceiling)
		if ok != c.ok || n != c.n {
			t.Errorf("n=%d: ok=%t n=%d, want ok=%t n=%d", c.n, ok, n, c.ok, c.n)
			continue
		}
		if ok && (pct != c.pct || v != c.value) {
			t.Errorf("n=%d ceiling=%g: p%g = %g, want p%g = %g", c.n, c.ceiling, pct, v, c.pct, c.value)
		}
	}
	if tailOrZero(seq(5)) != 0 {
		t.Error("tailOrZero with too few samples should be 0")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, b := range benches {
		ours = append(ours, b.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, ours)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

func TestPinsDecode(t *testing.T) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		if len(p.Digests[b.name]) < 2 {
			t.Errorf("%s: %d pinned seeds, want the default and a held-out seed", b.name, len(p.Digests[b.name]))
		}
	}
}
