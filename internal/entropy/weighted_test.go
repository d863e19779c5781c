package entropy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// evenWeights adapts plain samples to the weighted form with weight 1.
func evenWeights[S any](samples []S) []Weighted[S] {
	out := make([]Weighted[S], len(samples))
	for i, s := range samples {
		out[i] = Weighted[S]{Sample: s, Weight: 1}
	}
	return out
}

func TestWeightedReducesToPlainWithEqualWeights(t *testing.T) {
	lc := table2Row6Cores()
	be := []BESample{{SoloIPC: 2.7, MeasuredIPC: 1.3}, {SoloIPC: 0.6, MeasuredIPC: 0.2}}

	plainELC, _ := ELC(lc)
	plainEBE, _ := EBE(be)
	_, _, plainES, _ := System{RI: 0.8}.Compute(lc, be)

	welc, err := WeightedELC(evenWeights(lc))
	if err != nil {
		t.Fatal(err)
	}
	webe, err := WeightedEBE(evenWeights(be))
	if err != nil {
		t.Fatal(err)
	}
	_, _, wes, err := WeightedSystem{RI: 0.8}.Compute(evenWeights(lc), evenWeights(be))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(welc-plainELC) > 1e-12 || math.Abs(webe-plainEBE) > 1e-12 || math.Abs(wes-plainES) > 1e-12 {
		t.Errorf("weighted (%.4f, %.4f, %.4f) != plain (%.4f, %.4f, %.4f)",
			welc, webe, wes, plainELC, plainEBE, plainES)
	}
}

func TestWeightedELCShiftsTowardHeavyApp(t *testing.T) {
	good := LCSample{Name: "ok", IdealMs: 1, MeasuredMs: 1.5, TargetMs: 3} // Q = 0
	bad := LCSample{Name: "bad", IdealMs: 1, MeasuredMs: 10, TargetMs: 2}  // Q = 0.8
	up := []Weighted[LCSample]{{good, 1}, {bad, 9}}
	down := []Weighted[LCSample]{{good, 9}, {bad, 1}}
	hi, err := WeightedELC(up)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := WeightedELC(down)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Errorf("weighting the violator up should raise E_LC: %g vs %g", lo, hi)
	}
	if math.Abs(hi-0.9*bad.Intolerable()) > 1e-12 {
		t.Errorf("hi = %g, want %g", hi, 0.9*bad.Intolerable())
	}
}

func TestWeightedScaleInvariance(t *testing.T) {
	// Multiplying all weights by a constant must not change anything.
	f := func(w1Raw, w2Raw, kRaw uint16) bool {
		w1 := float64(w1Raw%100) + 1
		w2 := float64(w2Raw%100) + 1
		k := float64(kRaw%50) + 1
		lc := []Weighted[LCSample]{
			{LCSample{IdealMs: 1, MeasuredMs: 5, TargetMs: 2}, w1},
			{LCSample{IdealMs: 1, MeasuredMs: 1.2, TargetMs: 2}, w2},
		}
		scaled := []Weighted[LCSample]{
			{lc[0].Sample, w1 * k},
			{lc[1].Sample, w2 * k},
		}
		a, err1 := WeightedELC(lc)
		b, err2 := WeightedELC(scaled)
		return err1 == nil && err2 == nil && math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWeightedValidation(t *testing.T) {
	lc := []Weighted[LCSample]{{LCSample{IdealMs: 1, MeasuredMs: 2, TargetMs: 3}, 0}}
	if _, err := WeightedELC(lc); !errors.Is(err, ErrBadWeight) {
		t.Errorf("zero weight: %v", err)
	}
	be := []Weighted[BESample]{{BESample{SoloIPC: 1, MeasuredIPC: 1}, -1}}
	if _, err := WeightedEBE(be); !errors.Is(err, ErrBadWeight) {
		t.Errorf("negative weight: %v", err)
	}
	if _, err := WeightedELC(nil); !errors.Is(err, ErrNoSamples) {
		t.Error("empty weighted ELC")
	}
	if _, _, _, err := (WeightedSystem{RI: 2}).Compute(nil, evenWeights([]BESample{{SoloIPC: 1, MeasuredIPC: 1}})); err == nil {
		t.Error("bad RI accepted")
	}
}

func TestWeightedSystemDegeneration(t *testing.T) {
	lc := evenWeights([]LCSample{{IdealMs: 1, MeasuredMs: 4, TargetMs: 2}})
	be := evenWeights([]BESample{{SoloIPC: 2, MeasuredIPC: 1}})
	_, _, es, err := WeightedSystem{RI: 0.3}.Compute(lc, nil)
	if err != nil || math.Abs(es-0.5) > 1e-12 {
		t.Errorf("LC-only: es=%g err=%v", es, err)
	}
	_, _, es, err = WeightedSystem{RI: 0.9}.Compute(nil, be)
	if err != nil || math.Abs(es-0.5) > 1e-12 {
		t.Errorf("BE-only: es=%g err=%v", es, err)
	}
	if _, _, _, err := (WeightedSystem{RI: 0.5}).Compute(nil, nil); !errors.Is(err, ErrNoSamples) {
		t.Error("empty compute")
	}
}
