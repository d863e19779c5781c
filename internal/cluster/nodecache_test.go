package cluster

// NodeCache semantics: a hit must replay the bit-exact record a fresh
// simulation would produce; any differing key component (spec, options,
// seed policy, strategy digest, template) must miss; shards are bounded
// (a full shard stops inserting); and racing single-flight callers must
// resolve to exactly one simulation without tripping the race detector.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/static"
	"ahq/internal/sim"
)

// cachedFleetConfig is a small CRN fleet whose contents recur: four nodes
// over two templates, content-derived seeds.
func cachedFleetConfig(cache *NodeCache) Config {
	a := []sim.AppConfig{lcAt("xapian", 0.5), beApp("stream")}
	b := []sim.AppConfig{lcAt("moses", 0.35), lcAt("silo", 0.2), beApp("fluidanimate")}
	placement := [][]sim.AppConfig{a, b, a, b}
	seeds := make([]int64, len(placement))
	for i := range placement {
		seeds[i] = TemplateSeed(11, placement[i])
	}
	return Config{
		Spec:           machine.DefaultSpec(),
		Seed:           11,
		NewStrategy:    func(int) sched.Strategy { return arq.Default() },
		Placement:      placement,
		NodeSeed:       func(i int) int64 { return seeds[i] },
		NodeCache:      cache,
		StrategyDigest: "arq:default",
	}
}

// TestNodeCacheHitIsBitIdentical pins the core contract: a Run served from
// the cache equals — field for field, float bit for float bit (DeepEqual
// compares float64s exactly) — both the Run that populated the cache and
// an uncached Run.
func TestNodeCacheHitIsBitIdentical(t *testing.T) {
	cache := NewNodeCache()
	first, err := Run(cachedFleetConfig(cache), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.NodeCacheHits != 0 {
		t.Errorf("cold cache produced %d hits", first.Stats.NodeCacheHits)
	}
	second, err := Run(cachedFleetConfig(cache), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.NodeCacheHits != 2 {
		t.Errorf("warm run replayed %d groups, want 2", second.Stats.NodeCacheHits)
	}
	if second.Stats.NodesSimulated != 0 {
		t.Errorf("warm run simulated %d groups, want 0", second.Stats.NodesSimulated)
	}
	uncached, err := Run(cachedFleetConfig(nil), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(deterministicView(first), deterministicView(second)) {
		t.Error("cache hit diverged from the populating run")
	}
	if !reflect.DeepEqual(deterministicView(first), deterministicView(uncached)) {
		t.Error("cached run diverged from the uncached run")
	}
}

// TestNodeCacheDistinctInputsMiss pins the key: runs differing in machine
// spec, controller options, node seed, or strategy digest must not adopt
// each other's records — and, because every input is in the key, their
// results must equal a fresh uncached run of the same configuration.
func TestNodeCacheDistinctInputsMiss(t *testing.T) {
	cache := NewNodeCache()
	if _, err := Run(cachedFleetConfig(cache), quickOpts()); err != nil {
		t.Fatal(err)
	}
	variants := map[string]func() (Config, core.Options){
		"spec": func() (Config, core.Options) {
			cfg := cachedFleetConfig(cache)
			cfg.Spec = machine.Spec{Cores: 12, LLCWays: 20, MemBWUnits: 10, MemBWGBps: 40}
			return cfg, quickOpts()
		},
		"options": func() (Config, core.Options) {
			opts := quickOpts()
			opts.DurationMs += 500
			return cachedFleetConfig(cache), opts
		},
		"seed": func() (Config, core.Options) {
			cfg := cachedFleetConfig(cache)
			cfg.NodeSeed = func(i int) int64 { return 77 }
			return cfg, quickOpts()
		},
		"strategy-digest": func() (Config, core.Options) {
			cfg := cachedFleetConfig(cache)
			cfg.NewStrategy = func(int) sched.Strategy { return static.Unmanaged{} }
			cfg.StrategyDigest = "static:unmanaged"
			return cfg, quickOpts()
		},
	}
	for label, build := range variants {
		t.Run(label, func(t *testing.T) {
			cfg, opts := build()
			shared, err := Run(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if shared.Stats.NodeCacheHits != 0 {
				t.Errorf("variant %q adopted %d cached records; key is too coarse",
					label, shared.Stats.NodeCacheHits)
			}
			cfg2, opts2 := build()
			cfg2.NodeCache = nil
			fresh, err := Run(cfg2, opts2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(deterministicView(shared), deterministicView(fresh)) {
				t.Errorf("variant %q with shared cache diverged from fresh run", label)
			}
		})
	}
}

// TestNodeCacheRequiresStrategyDigest pins the configuration contract.
func TestNodeCacheRequiresStrategyDigest(t *testing.T) {
	cfg := cachedFleetConfig(NewNodeCache())
	cfg.StrategyDigest = ""
	if _, err := Run(cfg, quickOpts()); err == nil {
		t.Error("NodeCache without StrategyDigest was accepted")
	}
}

// TestNodeCacheBounded pins boundedness at the shard protocol level: once
// a shard reaches capacity, claim declines (nil, false) instead of
// inserting, and Len stops growing.
func TestNodeCacheBounded(t *testing.T) {
	c := NewNodeCache()
	// Drive one shard to capacity with synthetic keys routed to it.
	shard := c.shardFor("pin")
	inserted := 0
	for i := 0; inserted < nodeCacheShardMaxEntries; i++ {
		key := fmt.Sprintf("k%d", i)
		if c.shardFor(key) != shard {
			continue
		}
		e, claimed := c.claim(key)
		if !claimed {
			t.Fatalf("fresh key %q not claimed", key)
		}
		e.complete(unitOut{}, nil)
		inserted++
	}
	before := c.Len()
	rejects := 0
	for i := 0; rejects < 3; i++ {
		key := fmt.Sprintf("overflow%d", i)
		if c.shardFor(key) != shard {
			continue
		}
		if e, claimed := c.claim(key); claimed || e != nil {
			t.Fatalf("full shard accepted key %q", key)
		}
		rejects++
	}
	if c.Len() != before {
		t.Errorf("full shard grew: %d -> %d", before, c.Len())
	}
	st := c.Stats()
	if st.Full < 3 {
		t.Errorf("Full counter = %d, want >= 3", st.Full)
	}
	// Existing entries still hit.
	if _, ok := c.lookup("k0"); c.shardFor("k0") == shard && !ok {
		t.Error("bounded shard lost an existing entry")
	}
}

// TestNodeCacheSingleFlight races many callers on one key: exactly one
// must claim, everyone else must wait and observe the claimant's record.
// Run under -race this also exercises the done-channel publication edge.
func TestNodeCacheSingleFlight(t *testing.T) {
	c := NewNodeCache()
	const callers = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		claims  int
		results []int // guarded by mu
	)
	want := unitOut{epochs: 125}
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var co unitOut
			if e, ok := c.lookup("contested"); ok {
				co, _ = e.wait()
			} else if e, claimed := c.claim("contested"); claimed {
				mu.Lock()
				claims++
				mu.Unlock()
				e.complete(want, nil)
				co = want
			} else if e != nil {
				co, _ = e.wait()
			} else {
				t.Error("claim returned full on an empty cache")
				return
			}
			mu.Lock()
			results = append(results, co.epochs)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if claims != 1 {
		t.Errorf("%d callers claimed the key, want exactly 1", claims)
	}
	if len(results) != callers {
		t.Fatalf("%d results for %d callers", len(results), callers)
	}
	for _, got := range results {
		if got != want.epochs {
			t.Errorf("caller observed epochs=%d, want %d", got, want.epochs)
		}
	}
}

// TestNodeCacheConcurrentRuns races two whole fleet Runs sharing one cache
// (the sweep shape) and checks both match the uncached result — under
// -race this exercises the production lookup/claim/wait paths end to end.
func TestNodeCacheConcurrentRuns(t *testing.T) {
	cache := NewNodeCache()
	type out struct {
		res *Result
		err error
	}
	outs := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := Run(cachedFleetConfig(cache), quickOpts())
			outs <- out{res, err}
		}()
	}
	baseline, err := Run(cachedFleetConfig(nil), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !reflect.DeepEqual(deterministicView(baseline), deterministicView(o.res)) {
			t.Error("concurrent cached run diverged from uncached baseline")
		}
	}
}

// TestUnitGroupingByContent is the regression test for the grouping
// key: many templates sharing one name signature but differing in load —
// the shape that once made grouping quadratic — must stay distinct groups,
// while true duplicates group, in one linear key pass.
func TestUnitGroupingByContent(t *testing.T) {
	const distinct = 200
	placement := make([][]sim.AppConfig, 0, 2*distinct)
	for i := 0; i < distinct; i++ {
		placement = append(placement, []sim.AppConfig{lcAt("xapian", float64(i+1)/float64(distinct+1))})
	}
	// Second copy of every template: must group with the first.
	for i := 0; i < distinct; i++ {
		placement = append(placement, []sim.AppConfig{lcAt("xapian", float64(i+1)/float64(distinct+1))})
	}
	cfg := Config{
		Spec:      machine.DefaultSpec(),
		Placement: placement,
		Seed:      3,
		NodeSeed:  func(int) int64 { return 3 },
	}
	opts := quickOpts()
	const total = 14
	sched := supervise(&faults.FleetPlan{}, placement, cfg.Spec, false, total)
	refs, groups := buildUnits(&cfg, &faults.FleetPlan{}, sched, phaseShapes(sched.phases, opts, total), 0.8)
	if len(refs) != len(placement) {
		t.Fatalf("built %d units for %d nodes", len(refs), len(placement))
	}
	if len(groups) != distinct {
		t.Fatalf("grouped %d nodes into %d groups, want %d", len(placement), len(groups), distinct)
	}
	for i, r := range refs {
		if r.node != i || r.group != i%distinct {
			t.Errorf("unit %d = node %d group %d, want node %d group %d", i, r.node, r.group, i, i%distinct)
		}
	}
	for g, su := range groups {
		if su.unit.node != g {
			t.Errorf("group %d represented by node %d, want its first member %d", g, su.unit.node, g)
		}
		if su.key != "" {
			t.Errorf("group %d carries a cache key without a NodeCache", g)
		}
	}
}

// TestCanonicalOrderIsOrderInsensitive pins the placement canonicaliser:
// permutations of one node's contents canonicalise identically, distinct
// contents do not, and already-canonical input is returned unchanged.
func TestCanonicalOrderIsOrderInsensitive(t *testing.T) {
	a := []sim.AppConfig{lcAt("xapian", 0.5), beApp("stream"), lcAt("moses", 0.2)}
	b := []sim.AppConfig{a[2], a[0], a[1]}
	ca, cb := CanonicalOrder(a), CanonicalOrder(b)
	ka, oka := templateKey(ca)
	kb, okb := templateKey(cb)
	if !oka || !okb {
		t.Fatal("catalog templates must be key-serialisable")
	}
	if string(ka) != string(kb) {
		t.Error("permuted node contents canonicalised differently")
	}
	if kc, _ := templateKey(CanonicalOrder([]sim.AppConfig{lcAt("xapian", 0.7)})); string(kc) == string(ka) {
		t.Error("distinct contents share a canonical key")
	}
	again := CanonicalOrder(ca)
	if &again[0] != &ca[0] {
		t.Error("already-canonical input was copied")
	}
}

// TestTemplateSeedCRN pins the common-random-numbers seed policy: equal
// contents (after canonicalisation) get equal seeds, different contents or
// different base seeds get different ones.
func TestTemplateSeedCRN(t *testing.T) {
	a := CanonicalOrder([]sim.AppConfig{lcAt("xapian", 0.5), beApp("stream")})
	b := CanonicalOrder([]sim.AppConfig{beApp("stream"), lcAt("xapian", 0.5)})
	if TemplateSeed(42, a) != TemplateSeed(42, b) {
		t.Error("equal canonical contents got different seeds")
	}
	if TemplateSeed(42, a) == TemplateSeed(43, a) {
		t.Error("base seed does not perturb template seeds")
	}
	c := []sim.AppConfig{lcAt("xapian", 0.7), beApp("stream")}
	if TemplateSeed(42, a) == TemplateSeed(42, c) {
		t.Error("distinct contents got the same seed")
	}
}
