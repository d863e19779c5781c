package trace

import (
	"math"
	"strings"
	"testing"
)

func TestReadCSV(t *testing.T) {
	in := "time_s,load\n40,0.3\n0,0.1\n120,0.9\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(0); got != 0.1 {
		t.Errorf("At(0) = %g", got)
	}
	if got := s.At(50_000); got != 0.3 {
		t.Errorf("At(50s) = %g", got)
	}
	if got := s.At(200_000); got != 0.9 {
		t.Errorf("At(200s) = %g", got)
	}
}

func TestReadCSVAlternateHeaders(t *testing.T) {
	s, err := ReadCSV(strings.NewReader("t,frac\n0,0.5\n10,0.7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(5_000); got != 0.5 {
		t.Errorf("At(5s) = %g", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"header only": "time_s,load\n",
		"bad header":  "a,b\n1,0.5\n",
		"bad time":    "time_s,load\nxx,0.5\n",
		"bad load":    "time_s,load\n1,xx\n",
		"load range":  "time_s,load\n1,1.5\n",
		"NaN load":    "time_s,load\n1,NaN\n",
		"NaN time":    "time_s,load\nnan,0.5\n",
	}
	for label, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Fig13Xapian()
	var b strings.Builder
	if err := orig.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 50_000, 110_000, 130_000, 240_000} {
		if orig.At(tm) != back.At(tm) {
			t.Errorf("round trip differs at %g: %g vs %g", tm, orig.At(tm), back.At(tm))
		}
	}
}

// FuzzReadCSV feeds arbitrary text to ReadCSV. It must never panic, and
// any profile it accepts must survive WriteCSV and a second ReadCSV
// bit for bit: same length, same start times, same loads, same order.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_s,load\n40,0.3\n0,0.1\n120,0.9\n")
	f.Add("t,frac\n0,0.5\n10,0.7\n")
	f.Add("load,time\n0.25,1e-3\n0.5,1e-3\n")
	f.Add("TIME_S, load\n-0,-0\n7.77,1\n")
	f.Add("time_s,load\n1,NaN\n")
	f.Add("time_s,load\n1e306,0.5\n")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		if err := s.WriteCSV(&b); err != nil {
			t.Fatalf("WriteCSV of an accepted profile: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("ReadCSV rejects its own output %q: %v", b.String(), err)
		}
		if len(back) != len(s) {
			t.Fatalf("round trip has %d steps, want %d", len(back), len(s))
		}
		for i := range s {
			if math.Float64bits(back[i].StartMs) != math.Float64bits(s[i].StartMs) ||
				math.Float64bits(back[i].Frac) != math.Float64bits(s[i].Frac) {
				t.Fatalf("step %d: round trip %+v, want %+v (csv %q)", i, back[i], s[i], b.String())
			}
		}
	})
}
