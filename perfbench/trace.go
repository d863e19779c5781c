package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the layer's public functions. Spans of one controller,
// cluster or experiment run share run.
type span struct {
	name       string
	start, end int64 // ns since the tracer's base
	id, parent int64 // parent 0 = a root span
	run        int64
}

// tracer keeps every span of a traced unit in memory; the unit reads them
// back once it has finished. A nil *tracer means tracing is off, and the
// drivers then call the layers directly.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now reads the monotonic clock as ns since the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// newID hands out span and run identifiers; 0 is never issued.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record stores a finished span. It is safe for concurrent use.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name and returns the span's duration
// in ms; the span's own id is handed to fn so that calls made inside can
// name it as their parent.
func (t *tracer) timed(name string, parent, run int64, fn func(id int64)) float64 {
	id := t.newID()
	start := t.now()
	fn(id)
	end := t.now()
	t.record(span{name: name, start: start, end: end, id: id, parent: parent, run: run})
	return float64(end-start) / 1e6
}

// interval is a half-open [lo, hi) stretch of tracer time.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers. Children
// of one span can overlap when they run on different goroutines, so
// their durations cannot simply be summed.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var sum int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.lo > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// layerStats aggregates every span of one name.
type layerStats struct {
	calls   int
	totalMs float64
	selfMs  float64
	durUs   []float64 // each call's duration in µs
}

// aggregate folds spans into per-name statistics. A span's self time is
// its duration minus the union of its children's intervals.
func aggregate(spans []span) map[string]*layerStats {
	kids := make(map[int64][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	out := make(map[string]*layerStats)
	for _, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.calls++
		st.totalMs += float64(d) / 1e6
		st.selfMs += float64(d-covered(s.start, s.end, kids[s.id])) / 1e6
		st.durUs = append(st.durUs, float64(d)/1e3)
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of samples (which it
// sorts in place), or NaN when there are none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return samples[rank(p, len(samples))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles tail considers, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// tail reports the highest percentile in tailLadder, capped at ceiling,
// that has at least ten samples beyond it, with that percentile's value
// and the sample count. ok is false when even the median has fewer than
// ten samples above it.
func tail(samples []float64, ceiling float64) (pct, value float64, n int, ok bool) {
	n = len(samples)
	for _, p := range tailLadder {
		if p > ceiling {
			continue
		}
		if n > 0 && n-rank(p, n) >= 10 {
			return p, percentile(samples, p), n, true
		}
	}
	return 0, math.NaN(), n, false
}

// tailOrZero is tail(samples, 99)'s value, or 0 when there are too few
// samples for any percentile: per-layer metrics of a layer a workload
// does not exercise read 0.
func tailOrZero(samples []float64) float64 {
	if _, v, _, ok := tail(samples, 99); ok {
		return v
	}
	return 0
}

// medianOrZero is the median of samples (the mean of the two middle ones
// for an even count), or 0 when there are none.
func medianOrZero(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printLayerTable writes one row per span name: calls, total and self
// time, and the median and tail call duration.
func printLayerTable(w io.Writer, stats map[string]*layerStats) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %9s %12s %12s %11s %11s %6s\n", "layer span", "calls", "total_ms", "self_ms", "p50_us", "tail_us", "tail")
	for _, n := range names {
		st := stats[n]
		p50 := percentile(append([]float64(nil), st.durUs...), 50)
		tailValue, tailLabel := "-", "-"
		if pct, tv, _, ok := tail(st.durUs, 99); ok {
			tailValue, tailLabel = fmt.Sprintf("%.1f", tv), fmt.Sprintf("p%g", pct)
		}
		fmt.Fprintf(w, "%-34s %9d %12.1f %12.1f %11.1f %11s %6s\n", n, st.calls, st.totalMs, st.selfMs, p50, tailValue, tailLabel)
	}
}
