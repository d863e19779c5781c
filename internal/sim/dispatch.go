package sim

// LC request dispatch. Each of an application's worker threads is a
// sequential service "slot" with its own wall clock; dispatching a request
// means finding the slot that frees up earliest (lowest clock, lowest index
// on ties). The original implementation rescanned every slot per request —
// O(queue × slots); dispatchHeap keeps the slots in an index-tie-broken
// binary min-heap over their clocks instead, so each dispatch costs
// O(log slots). Two structural facts keep the heap cheap to maintain:
//
//   - Slot rates take only two values — isolated slots run at 1/slowdown,
//     shared-region slots at sharedShare/slowdown — and the isolated slots
//     form a prefix of the slot array. When the shared rate is zero the
//     usable slots are exactly that prefix, so "slots with a usable rate"
//     is always slots [0, usable) and no per-slot rate array is needed.
//   - All clocks start the tick equal (at nowMs), so the identity
//     permutation [0, 1, …] is already a valid heap; only the slot that
//     just served a request ever moves, and only downward.
//
// dispatchLinear (dispatch_test.go) preserves the original scan verbatim
// as the reference implementation; TestHeapDispatchMatchesLinear drives
// both over randomized queues and slot configurations and demands
// identical completion sequences, clocks, and leftover queues.

// dispatchHeap serves a's queued requests on its slots for the tick
// [nowMs, tickEnd), completing what fits and carrying the rest.
//
//ahq:hotpath
func (a *appState) dispatchHeap(nowMs, tickEnd float64) {
	nSlots := a.threads()
	isoSlots := a.isoCores
	if isoSlots > nSlots {
		isoSlots = nSlots
	}
	rIso := a.rateIso
	rShared := a.rateShared
	usable := nSlots
	if rShared <= 0 {
		usable = isoSlots
	}
	if usable == 0 {
		// No slot can run; every request waits as-is.
		return
	}
	if usable <= smallSlotCount {
		a.dispatchSmall(nowMs, tickEnd, usable, isoSlots, rIso, rShared)
		return
	}
	if cap(a.slotClock) < usable {
		//ahqlint:allow hotpath capacity-guarded: the slot arrays grow to the widest slot count once, then are reused
		a.slotClock = make([]float64, usable)
		a.slotHeap = make([]int32, usable) //ahqlint:allow hotpath capacity-guarded: the slot arrays grow to the widest slot count once, then are reused
	}
	clocks := a.slotClock[:usable]
	h := a.slotHeap[:usable]
	for i := range clocks {
		clocks[i] = nowMs
		h[i] = int32(i)
	}
	q := a.queue
	kept := a.keptBuf[:0]
	qi := a.qHead
	for ; qi < len(q); qi++ {
		req := q[qi]
		top := h[0]
		if clocks[top] >= tickEnd {
			// Every slot is booked past the tick (start can only grow with
			// the clock), so every remaining request waits: leave the tail
			// [qi, len(q)) in place instead of walking it.
			break
		}
		start := clocks[top]
		if req.arrivalMs > start {
			start = req.arrivalMs
		}
		if req.notBefore > start {
			start = req.notBefore
		}
		if start >= tickEnd {
			// This request cannot start before the tick ends even on the
			// earliest slot; wait it out.
			kept = append(kept, req) //ahqlint:allow hotpath amortized: keptBuf reuses its backing array across ticks
			continue
		}
		rate := rIso
		if int(top) >= isoSlots {
			rate = rShared
		}
		can := (tickEnd - start) * rate
		if req.remainMs <= can {
			done := start + req.remainMs/rate
			clocks[top] = done
			a.complete(req, done)
		} else {
			req.remainMs -= can
			clocks[top] = tickEnd
			kept = append(kept, req) //ahqlint:allow hotpath amortized: keptBuf reuses its backing array across ticks
		}
		siftDown(h, clocks)
	}
	// Write the carried requests back right-aligned against the untouched
	// tail: the pending queue becomes kept ++ q[qi:] by advancing qHead,
	// without moving the tail. When nothing was carried, this is free.
	newHead := qi - len(kept)
	copy(q[newHead:qi], kept)
	a.qHead = newHead
	a.keptBuf = kept[:0]
}

// smallSlotCount is the widest slot array served by dispatchSmall's linear
// scan. Catalog applications run 4 worker threads, so virtually every
// dispatch lands here; at these widths scanning a handful of clocks held in
// a stack array beats maintaining the heap (no index array, no siftDown
// calls, no per-tick heap initialisation).
const smallSlotCount = 8

// dispatchSmall is dispatchHeap's fast path for small slot counts: the
// earliest-slot-lowest-index selection is a strict < scan over the clocks,
// which picks exactly the slot the heap's (clock, index) order would. All
// arithmetic on the chosen slot is identical, so completions, clocks and
// leftover queues match the heap and linear paths bit for bit.
func (a *appState) dispatchSmall(nowMs, tickEnd float64, usable, isoSlots int, rIso, rShared float64) {
	var clocks [smallSlotCount]float64
	for i := 0; i < usable; i++ {
		clocks[i] = nowMs
	}
	q := a.queue
	kept := a.keptBuf[:0]
	qi := a.qHead
	for ; qi < len(q); qi++ {
		top := 0
		c := clocks[0]
		for i := 1; i < usable; i++ {
			if clocks[i] < c {
				top, c = i, clocks[i]
			}
		}
		if c >= tickEnd {
			// Every slot is booked past the tick; the tail [qi, len(q))
			// waits in place.
			break
		}
		req := &q[qi]
		start := c
		if req.arrivalMs > start {
			start = req.arrivalMs
		}
		if req.notBefore > start {
			start = req.notBefore
		}
		if start >= tickEnd {
			kept = append(kept, *req) //ahqlint:allow hotpath amortized: keptBuf reuses its backing array across ticks
			continue
		}
		rate := rIso
		if top >= isoSlots {
			rate = rShared
		}
		can := (tickEnd - start) * rate
		if req.remainMs <= can {
			done := start + req.remainMs/rate
			clocks[top] = done
			a.complete(*req, done)
		} else {
			r := *req
			r.remainMs -= can
			clocks[top] = tickEnd
			kept = append(kept, r) //ahqlint:allow hotpath amortized: keptBuf reuses its backing array across ticks
		}
	}
	newHead := qi - len(kept)
	copy(q[newHead:qi], kept)
	a.qHead = newHead
	a.keptBuf = kept[:0]
}

// siftDown restores the heap property after the root slot's clock grew.
// Ordering is (clock, slot index) lexicographic, expressed with < only so
// equal clocks fall through to the index comparison.
func siftDown(h []int32, clocks []float64) {
	i := 0
	n := len(h)
	for {
		s := i
		if l := 2*i + 1; l < n && slotLess(h[l], h[s], clocks) {
			s = l
		}
		if r := 2*i + 2; r < n && slotLess(h[r], h[s], clocks) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// slotLess orders slots by clock, breaking ties toward the lower index —
// exactly the choice the linear scan's strict < comparison made.
func slotLess(x, y int32, clocks []float64) bool {
	if clocks[x] < clocks[y] {
		return true
	}
	if clocks[y] < clocks[x] {
		return false
	}
	return x < y
}

// complete records one finished request: latency bookkeeping plus the
// closed-loop user's next-issue reschedule.
func (a *appState) complete(req request, done float64) {
	lat := done - req.arrivalMs
	a.latWin.Observe(lat)
	a.runLat = append(a.runLat, lat) //ahqlint:allow hotpath amortized: the run-level accumulator grows toward the run length once
	if req.user >= 0 && req.user < len(a.nextIssue) {
		// Closed loop: the user thinks, then reissues.
		a.nextIssue[req.user] = done + a.rng.ExpFloat64()*a.thinkMean()
	}
}
