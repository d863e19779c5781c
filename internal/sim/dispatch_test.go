package sim

import (
	"math"
	"math/rand"
	"testing"

	"ahq/internal/workload"
)

// deriveRates mirrors resolveMemBW's slot-rate precomputation for the
// hand-built contention snapshots below: the dispatchers consume the
// resolver-owned rateIso/rateShared fields, never the raw slowdown.
func (a *appState) deriveRates() {
	a.rateIso = 1 / a.slowdown
	a.rateShared = a.sharedShare / a.slowdown
}

// dispatchLinear is the pre-heap dispatcher, kept verbatim as the reference
// for the differential test: for each request, rescan every slot for the
// earliest one with a usable rate.
func (a *appState) dispatchLinear(nowMs, tickEnd float64) {
	nSlots := a.threads()
	clocks := make([]float64, nSlots)
	rates := make([]float64, nSlots)
	isoSlots := a.isoCores
	if isoSlots > nSlots {
		isoSlots = nSlots
	}
	for i := 0; i < nSlots; i++ {
		clocks[i] = nowMs
		speed := a.sharedShare
		if i < isoSlots {
			speed = 1
		}
		rates[i] = speed / a.slowdown // work per wall-clock ms
	}
	q := a.pending()
	kept := q[:0]
	for _, req := range q {
		// Earliest-available slot with a usable rate.
		slot := -1
		for i := 0; i < nSlots; i++ {
			if rates[i] <= 0 {
				continue
			}
			if slot == -1 || clocks[i] < clocks[slot] {
				slot = i
			}
		}
		if slot == -1 {
			kept = append(kept, req)
			continue
		}
		start := clocks[slot]
		if req.arrivalMs > start {
			start = req.arrivalMs
		}
		if req.notBefore > start {
			start = req.notBefore
		}
		if start >= tickEnd {
			kept = append(kept, req)
			continue
		}
		can := (tickEnd - start) * rates[slot]
		if req.remainMs <= can {
			done := start + req.remainMs/rates[slot]
			clocks[slot] = done
			a.complete(req, done)
			continue
		}
		req.remainMs -= can
		clocks[slot] = tickEnd
		kept = append(kept, req)
	}
	a.queue = a.queue[:a.qHead+len(kept)]
}

// dispatchApp builds an appState with a randomized contention snapshot and
// request queue, ready to dispatch one tick. Every draw comes from rng, so
// two calls with identically seeded sources produce identical states.
func dispatchApp(rng *rand.Rand, nowMs float64) *appState {
	lc := workload.MustLC("xapian")
	a := newAppState(AppConfig{LC: &lc}, 1)
	// Randomize the slot configuration across the interesting shapes:
	// iso-only (shared share zero), shared-only, mixed, and more isolated
	// cores than threads.
	a.isoCores = rng.Intn(lc.Threads + 3)
	a.slowdown = 1 + 3*rng.Float64()
	switch rng.Intn(3) {
	case 0:
		a.sharedShare = 0
	default:
		a.sharedShare = rng.Float64()
	}
	a.deriveRates()
	n := rng.Intn(24)
	for i := 0; i < n; i++ {
		at := nowMs - 3*rng.Float64() // some backlog, some fresh
		a.queue = append(a.queue, request{
			arrivalMs: at,
			remainMs:  0.05 + 2.5*rng.Float64(),
			notBefore: at + 0.4*rng.Float64(),
			user:      -1,
		})
	}
	return a
}

// TestHeapDispatchMatchesLinear drives the heap dispatcher and the original
// linear scan over randomized queues and slot configurations and demands
// identical completion sequences (latency by latency, bit for bit) and
// identical leftover queues.
func TestHeapDispatchMatchesLinear(t *testing.T) {
	for trial := 0; trial < 2000; trial++ {
		seed := int64(trial + 1)
		nowMs := float64(trial % 7)
		h := dispatchApp(rand.New(rand.NewSource(seed)), nowMs)
		l := dispatchApp(rand.New(rand.NewSource(seed)), nowMs)
		tickEnd := nowMs + 1

		h.dispatchHeap(nowMs, tickEnd)
		l.dispatchLinear(nowMs, tickEnd)

		if len(h.runLat) != len(l.runLat) {
			t.Fatalf("trial %d: heap completed %d requests, linear %d",
				trial, len(h.runLat), len(l.runLat))
		}
		for i := range h.runLat {
			if h.runLat[i] != l.runLat[i] {
				t.Fatalf("trial %d: completion %d latency %v (heap) != %v (linear)",
					trial, i, h.runLat[i], l.runLat[i])
			}
		}
		hq, lq := h.pending(), l.pending()
		if len(hq) != len(lq) {
			t.Fatalf("trial %d: heap kept %d requests, linear kept %d",
				trial, len(hq), len(lq))
		}
		for i := range hq {
			if hq[i] != lq[i] {
				t.Fatalf("trial %d: kept request %d differs: %+v (heap) != %+v (linear)",
					trial, i, hq[i], lq[i])
			}
		}
	}
}

// TestHeapDispatchClosedLoopReschedules pins the closed-loop path through
// the heap dispatcher: completions must consume identical rng draws and
// produce identical next-issue times in both implementations.
func TestHeapDispatchClosedLoopReschedules(t *testing.T) {
	build := func() *appState {
		lc := workload.MustLC("xapian")
		a := newAppState(AppConfig{LC: &lc, ClosedLoopUsers: 6}, 42)
		a.isoCores = 2
		a.slowdown = 1.5
		a.sharedShare = 0.6
		a.deriveRates()
		a.nextIssue = make([]float64, 6)
		for u := 0; u < 6; u++ {
			a.queue = append(a.queue, request{
				arrivalMs: float64(u) * 0.1,
				remainMs:  0.3 + 0.2*float64(u),
				user:      u,
			})
			a.nextIssue[u] = -1
		}
		return a
	}
	h, l := build(), build()
	h.dispatchHeap(0, 1)
	l.dispatchLinear(0, 1)
	for u := range h.nextIssue {
		if h.nextIssue[u] != l.nextIssue[u] {
			t.Fatalf("user %d: next issue %v (heap) != %v (linear)",
				u, h.nextIssue[u], l.nextIssue[u])
		}
	}
}

// TestOldestAgeMsScansWholeQueue is the regression test for the starved-app
// latency bound: same-tick arrivals are appended in draw order, so the head
// of the queue is not necessarily the oldest request.
func TestOldestAgeMsScansWholeQueue(t *testing.T) {
	lc := workload.MustLC("xapian")
	a := newAppState(AppConfig{LC: &lc}, 1)
	a.queue = []request{
		{arrivalMs: 10.7},
		{arrivalMs: 10.2}, // older than the head
		{arrivalMs: 10.9},
	}
	if got, want := a.oldestAgeMs(20), 20-10.2; got != want {
		t.Errorf("oldestAgeMs = %v, want %v (the queue minimum, not the head)", got, want)
	}
	// The head index must not hide dispatched entries' successors.
	a.qHead = 1
	if got, want := a.oldestAgeMs(20), 20-10.2; got != want {
		t.Errorf("oldestAgeMs with qHead=1 = %v, want %v", got, want)
	}
	a.queue = a.queue[:0]
	a.qHead = 0
	if got := a.oldestAgeMs(20); !math.IsNaN(got) {
		t.Errorf("oldestAgeMs on empty queue = %v, want NaN", got)
	}
}

// TestQueueHeadCompaction pins the head-indexed queue's invariants: pending
// order survives dispatch-and-refill cycles and the backing array is
// re-normalised once the dispatched prefix dominates.
func TestQueueHeadCompaction(t *testing.T) {
	lc := workload.MustLC("xapian")
	lc.ServiceSigma = 0
	lc.Terms = nil
	a := newAppState(AppConfig{LC: &lc}, 1)
	a.isoCores = 1
	a.slowdown = 1
	a.deriveRates()
	// 8 requests of 1 ms each on one slot: each tick completes exactly one.
	for i := 0; i < 8; i++ {
		a.queue = append(a.queue, request{arrivalMs: 0, remainMs: 1, user: -1})
	}
	for tick := 0; tick < 8; tick++ {
		now := float64(tick)
		a.arrive(now, 1) // no load trace: only runs the compaction step
		wantLen := 8 - tick
		if got := a.pendingLen(); got != wantLen {
			t.Fatalf("tick %d: pendingLen = %d, want %d", tick, got, wantLen)
		}
		if 2*a.qHead >= len(a.queue) && a.qHead != 0 {
			t.Fatalf("tick %d: compaction missed: qHead=%d len=%d", tick, a.qHead, len(a.queue))
		}
		a.dispatchHeap(now, now+1)
	}
	if a.pendingLen() != 0 {
		t.Fatalf("queue not drained: %d pending", a.pendingLen())
	}
}

// TestHeapDispatchNotBeforeStraddlesTick pins the boundary the dispatch
// delay creates: requests whose earliest-dispatch time lands exactly on,
// one ulp before, or one ulp after a tick boundary must be dispatched (or
// held) identically by the heap and linear dispatchers — across the tick
// in which they become eligible, not just within one tick.
func TestHeapDispatchNotBeforeStraddlesTick(t *testing.T) {
	for trial := 0; trial < 500; trial++ {
		seed := int64(trial + 10_001)
		build := func() *appState {
			rng := rand.New(rand.NewSource(seed))
			a := dispatchApp(rng, 0)
			// Rewrite the queue so every notBefore hugs a tick boundary:
			// exactly at tick 1, one ulp either side, exactly at the tick
			// start, and far beyond the horizon.
			boundary := 1.0
			for i := range a.queue {
				req := &a.queue[i]
				switch i % 5 {
				case 0:
					req.notBefore = boundary
				case 1:
					req.notBefore = math.Nextafter(boundary, 0)
				case 2:
					req.notBefore = math.Nextafter(boundary, 2)
				case 3:
					req.notBefore = 0
				default:
					req.notBefore = 2.5
				}
			}
			return a
		}
		h, l := build(), build()
		// Two consecutive ticks, so the boundary cases transition from
		// "held" to "eligible" between dispatch calls.
		h.dispatchHeap(0, 1)
		h.dispatchHeap(1, 2)
		l.dispatchLinear(0, 1)
		l.dispatchLinear(1, 2)

		if len(h.runLat) != len(l.runLat) {
			t.Fatalf("trial %d: heap completed %d, linear %d", trial, len(h.runLat), len(l.runLat))
		}
		for i := range h.runLat {
			if h.runLat[i] != l.runLat[i] {
				t.Fatalf("trial %d: completion %d latency %v (heap) != %v (linear)",
					trial, i, h.runLat[i], l.runLat[i])
			}
		}
		hq, lq := h.pending(), l.pending()
		if len(hq) != len(lq) {
			t.Fatalf("trial %d: heap kept %d, linear kept %d", trial, len(hq), len(lq))
		}
		for i := range hq {
			if hq[i] != lq[i] {
				t.Fatalf("trial %d: kept %d differs: %+v vs %+v", trial, i, hq[i], lq[i])
			}
		}
	}
}
