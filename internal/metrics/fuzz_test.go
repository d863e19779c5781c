package metrics

import (
	"math"
	"sort"
	"testing"
)

// FuzzPercentile checks ordering and range invariants of the exact
// percentile under arbitrary inputs, and that SelectInPlace reads the same
// order statistic a full sort does.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{10, 20, 30}, float64(0.5))
	f.Add([]byte{0}, float64(0.95))
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if len(data) == 0 || math.IsNaN(p) {
			return
		}
		xs := make([]float64, len(data))
		for i, b := range data {
			xs[i] = float64(b)
		}
		got := Percentile(xs, p)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got < sorted[0]-1e-9 || got > sorted[len(sorted)-1]+1e-9 {
			t.Fatalf("Percentile(%g) = %g outside [%g, %g]", p, got, sorted[0], sorted[len(sorted)-1])
		}
		k := int(data[0]) % len(xs)
		if sel := SelectInPlace(append([]float64(nil), xs...), k); sel != sorted[k] {
			t.Fatalf("SelectInPlace(k=%d) = %g, sorted[k] = %g", k, sel, sorted[k])
		}
	})
}
