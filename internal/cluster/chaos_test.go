package cluster

// Chaos-engine coverage: determinism of the phased fleet run at every
// parallelism level, conservation of the application multiset across
// evict/re-place, failure absorption (a broken node must not abort the
// fleet), future draining on shard errors, and the NodeCache
// negative-caching regression (errored entries must be dropped, not
// served as empty successes).

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ahq/internal/faults"
	"ahq/internal/sim"
)

func chaosConfig(parallel int, plan string, replace bool) Config {
	p, err := faults.ParseFleet(plan)
	if err != nil {
		panic(err)
	}
	cfg := fleetConfig(parallel)
	cfg.FleetPlan = p
	cfg.ReplaceEvicted = replace
	return cfg
}

func TestChaosRejectsIncompatibleConfig(t *testing.T) {
	cfg := chaosConfig(1, "crash@6x3/nodes=2", true)
	cfg.NodeSeed = func(int) int64 { return 1 }
	if _, err := Run(cfg, quickOpts()); err == nil {
		t.Error("FleetPlan with NodeSeed accepted, want error")
	}
}

// TestChaosDeterministicAcrossParallelism is the chaos analogue of the
// fleet determinism contract, with all three fault kinds and re-placement
// active: everything printable — samples, incident counters, supervisor
// counters — must be identical at -parallel 1, default, and 7.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	const plan = "crash@6x3/nodes=2,degrade@5+/nodes=1,blackout@7x2/nodes=2"
	var views []Result
	for _, parallel := range []int{1, 0, 7} {
		res, err := Run(chaosConfig(parallel, plan, true), quickOpts())
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		v := deterministicView(res)
		// The incident counters are part of the deterministic contract,
		// unlike the solve counters deterministicView strips.
		v.Stats.FailedNodes = res.Stats.FailedNodes
		v.Stats.DownEpochs = res.Stats.DownEpochs
		v.Stats.Evictions = res.Stats.Evictions
		views = append(views, v)
	}
	for i := 1; i < len(views); i++ {
		if !reflect.DeepEqual(views[0], views[i]) {
			t.Errorf("chaos result differs between parallel settings 1 and %d", []int{1, 0, 7}[i])
		}
	}
	if views[0].Stats.FailedNodes == 0 || views[0].Evictions == 0 {
		t.Errorf("chaos run recorded no incidents (failed=%d evictions=%d); plan not applied?",
			views[0].Stats.FailedNodes, views[0].Evictions)
	}
}

// TestChaosDeterministicWithNodeCache runs the same chaos config twice
// against one shared NodeCache: the replay must be bit-identical to the
// original and actually come from the cache.
func TestChaosDeterministicWithNodeCache(t *testing.T) {
	cache := NewNodeCache()
	run := func() *Result {
		cfg := chaosConfig(3, "crash@6x3/nodes=2,blackout@7x2/nodes=2", true)
		cfg.NodeCache = cache
		cfg.StrategyDigest = "arq:default"
		res, err := Run(cfg, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(deterministicView(a), deterministicView(b)) {
		t.Error("NodeCache replay of a chaos run differs from the original")
	}
	if b.Stats.NodeCacheHits == 0 {
		t.Error("second chaos run hit the NodeCache zero times")
	}
}

// TestChaosReplaceBeatsNoReplace pins the headline robustness claim:
// under a persistent crash, failure-aware re-placement yields lower fleet
// E_S and violation rate than leaving the victims' applications dead.
func TestChaosReplaceBeatsNoReplace(t *testing.T) {
	const plan = "crash@5+/nodes=2"
	nr, err := Run(chaosConfig(0, plan, false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(chaosConfig(0, plan, true), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if nr.Evictions != 0 || nr.Replacements != 0 {
		t.Errorf("no-replace run evicted: %d evictions, %d replacements", nr.Evictions, nr.Replacements)
	}
	if rp.Evictions == 0 || rp.Replacements == 0 {
		t.Fatalf("replace run did not re-place: %d evictions, %d replacements", rp.Evictions, rp.Replacements)
	}
	if rp.MeanRecoveryEpochs < 1 {
		t.Errorf("MeanRecoveryEpochs = %g, want >= 1 (orphans retry from the epoch after the crash)", rp.MeanRecoveryEpochs)
	}
	if !(rp.GlobalES < nr.GlobalES) {
		t.Errorf("re-placement did not improve fleet E_S: replace %g vs no-replace %g", rp.GlobalES, nr.GlobalES)
	}
	// Violation rate may go either way — a re-placed app running with some
	// violations still beats a dead window on severity — but both rates
	// must stay well-formed.
	for _, r := range []*Result{nr, rp} {
		if vr := r.ViolationRate(); vr <= 0 || vr > 1 {
			t.Errorf("violation rate = %g, want (0,1]", vr)
		}
	}
	for _, r := range []*Result{nr, rp} {
		if r.Stats.FailedNodes != 2 {
			t.Errorf("FailedNodes = %d, want 2", r.Stats.FailedNodes)
		}
	}
}

// TestChaosCrashAccounting pins the incident bookkeeping of a single
// bounded crash against hand-computed epoch math (quickOpts: 14 total
// epochs, 4 warm, 10 measured).
func TestChaosCrashAccounting(t *testing.T) {
	res, err := Run(chaosConfig(2, "crash@6x3/node=2", false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summaries[2]
	if !s.Failed || s.DownEpochs != 3 {
		t.Errorf("victim summary: Failed=%v DownEpochs=%d, want true/3", s.Failed, s.DownEpochs)
	}
	// Phases [0,6) and [9,14): 2 + 5 measured epochs alive.
	if s.Epochs != 7 {
		t.Errorf("victim alive epochs = %d, want 7", s.Epochs)
	}
	// RoundRobin gives node 2 two LC apps; 3 dead epochs each, all
	// measured, all violations.
	if s.ViolationEpochs < 6 {
		t.Errorf("victim violation epochs = %d, want >= 6 from dead windows", s.ViolationEpochs)
	}
	if res.Stats.FailedNodes != 1 || res.Stats.DownEpochs != 3 || res.Stats.Evictions != 0 {
		t.Errorf("fleet incident counters = %+d/%d/%d, want 1/3/0",
			res.Stats.FailedNodes, res.Stats.DownEpochs, res.Stats.Evictions)
	}
	for i, sum := range res.Summaries {
		if i != 2 && sum.Failed {
			t.Errorf("node %d marked failed, only node 2 crashed", i)
		}
	}
	if res.LCAppEpochs == 0 {
		t.Fatal("chaos run left LCAppEpochs unset")
	}
	if vr := res.ViolationRate(); vr <= 0 || vr > 1 {
		t.Errorf("violation rate = %g, want (0,1]", vr)
	}
	if math.IsNaN(res.GlobalES) {
		t.Error("global E_S is NaN")
	}
}

// TestChaosBlackoutIncidents: a whole-node telemetry blackout must flow
// through to the node's controller as dropped-telemetry incidents without
// marking the node failed.
func TestChaosBlackoutIncidents(t *testing.T) {
	res, err := Run(chaosConfig(2, "blackout@6x2/node=3", false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FailedNodes != 0 || res.Stats.DownEpochs != 0 {
		t.Errorf("blackout marked nodes down: %d failed, %d down epochs",
			res.Stats.FailedNodes, res.Stats.DownEpochs)
	}
	if res.Summaries[3].Incidents == 0 {
		t.Error("blacked-out node recorded no telemetry incidents")
	}
	base, err := Run(fleetConfig(2), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summaries[3].Incidents <= base.Summaries[3].Incidents {
		t.Errorf("blackout did not add incidents on node 3: %d vs baseline %d",
			res.Summaries[3].Incidents, base.Summaries[3].Incidents)
	}
}

// TestChaosDegradeRuns: a persistent degrade halves the victim's capacity
// mid-run; the node keeps running (not failed, fully measured) and the
// fleet aggregate stays finite.
func TestChaosDegradeRuns(t *testing.T) {
	res, err := Run(chaosConfig(2, "degrade@6+/node=1", false), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summaries[1]
	if s.Failed || s.DownEpochs != 0 {
		t.Errorf("degraded node marked down: Failed=%v DownEpochs=%d", s.Failed, s.DownEpochs)
	}
	if s.Epochs != 10 {
		t.Errorf("degraded node measured %d epochs, want all 10", s.Epochs)
	}
	if math.IsNaN(res.GlobalES) || math.IsInf(res.GlobalES, 0) {
		t.Errorf("global E_S = %g under degrade", res.GlobalES)
	}
}

// TestRunAbsorbsNodeError is the acceptance criterion that a single
// node's simulation error no longer aborts cluster.Run: the broken node
// becomes a failed summary with dead-window accounting and the healthy
// rest of the fleet aggregates normally.
func TestRunAbsorbsNodeError(t *testing.T) {
	cfg := fleetConfig(2)
	// An AppConfig with neither LC nor BE fails sim.New validation.
	cfg.Placement[3] = []sim.AppConfig{{}}
	res, err := Run(cfg, quickOpts())
	if err != nil {
		t.Fatalf("fleet run aborted on a single broken node: %v", err)
	}
	s := res.Summaries[3]
	if !s.Failed {
		t.Fatal("broken node not marked Failed")
	}
	if s.DownEpochs != 14 || s.Epochs != 10 {
		t.Errorf("broken node DownEpochs=%d Epochs=%d, want 14/10", s.DownEpochs, s.Epochs)
	}
	if res.Stats.FailedNodes != 1 {
		t.Errorf("FailedNodes = %d, want 1", res.Stats.FailedNodes)
	}
	if math.IsNaN(res.GlobalES) {
		t.Error("global E_S is NaN with one absorbed failure")
	}
}

// TestChaosAbsorbsNodeError is TestRunAbsorbsNodeError under a FleetPlan:
// a unit whose simulation errors must keep its dead epochs in the node
// summary and the fleet counters, exactly as it does without a plan. The
// blackout cuts no phase, so the broken node is one unit over the whole
// 14-epoch horizon.
func TestChaosAbsorbsNodeError(t *testing.T) {
	cfg := chaosConfig(2, "blackout@6x2/node=0", false)
	cfg.Placement[3] = []sim.AppConfig{{}}
	res, err := Run(cfg, quickOpts())
	if err != nil {
		t.Fatalf("chaos run aborted on a single broken node: %v", err)
	}
	s := res.Summaries[3]
	if !s.Failed || s.DownEpochs != 14 || s.Epochs != 10 {
		t.Errorf("broken node Failed=%v DownEpochs=%d Epochs=%d, want true/14/10", s.Failed, s.DownEpochs, s.Epochs)
	}
	if res.Stats.FailedNodes != 1 || res.Stats.DownEpochs != 14 {
		t.Errorf("fleet FailedNodes=%d DownEpochs=%d, want 1/14", res.Stats.FailedNodes, res.Stats.DownEpochs)
	}
	if math.IsNaN(res.GlobalES) {
		t.Error("global E_S is NaN with one absorbed failure")
	}
}

// TestRunDrainsFuturesOnError pins the drain contract: when a shard
// fails, Run still waits for every submitted shard before returning the
// first error — no goroutine may outlive the call.
func TestRunDrainsFuturesOnError(t *testing.T) {
	var calls atomic.Int32
	shardFailHook = func(shard int) error {
		if shard != 0 {
			time.Sleep(10 * time.Millisecond)
		}
		calls.Add(1)
		return errors.New("injected shard failure")
	}
	defer func() { shardFailHook = nil }()
	cfg := fleetConfig(4)
	if _, err := Run(cfg, quickOpts()); err == nil {
		t.Fatal("injected shard failure did not surface")
	}
	// 8 single-unit groups over 4 workers.
	want := int32(shardsFor(8, 4))
	if got := calls.Load(); got != want {
		t.Errorf("Run returned after %d of %d shards completed; futures not drained", got, want)
	}
}

// TestNodeCacheDropsErroredEntry is the negative-caching regression: an
// in-flight entry that completes with an error must release its waiters
// with that error and then leave the cache, so the unit is re-simulated
// rather than replayed as an empty success.
func TestNodeCacheDropsErroredEntry(t *testing.T) {
	c := NewNodeCache()
	e, claimed := c.claim("k")
	if !claimed {
		t.Fatal("fresh key not claimable")
	}
	w, ok := c.lookup("k")
	if !ok || w != e {
		t.Fatal("in-flight entry not visible to lookup")
	}
	c.publish("k", e, unitOut{}, errors.New("boom"))
	if _, err := w.wait(); err == nil {
		t.Error("waiter did not observe the publish error")
	}
	if _, ok := c.lookup("k"); ok {
		t.Fatal("errored entry still cached after publish")
	}
	if c.Len() != 0 {
		t.Errorf("cache Len = %d after dropping its only entry", c.Len())
	}
	// The key must be claimable again, and a successful publish sticks.
	e2, claimed := c.claim("k")
	if !claimed {
		t.Fatal("key not re-claimable after an errored publish")
	}
	c.publish("k", e2, unitOut{epochs: 7}, nil)
	got, ok := c.lookup("k")
	if !ok {
		t.Fatal("successful publish not cached")
	}
	co, err := got.wait()
	if err != nil || co.epochs != 7 {
		t.Errorf("replayed entry = %+v, %v; want epochs 7, nil", co, err)
	}
}
