package cluster

// A placement-comparison sweep — the workload of every score-based
// scheduler in the related work (paws' temporal-utilisation scorer, Mage's
// online candidate evaluation) — runs many fleets over one application
// population. Node contents recur massively across those fleets: the
// population is a small catalog of service templates at quantised load
// steps, so two placements (and two fleet sizes) keep producing nodes
// whose simulations are bit-for-bit the same computation. Within a single
// cluster.Run the engine groups equal units and simulates each group once;
// across Runs every placement would re-simulate everything.
//
// NodeCache extends the collapse to the whole sweep: a concurrency-safe,
// sharded, bounded, content-addressed cache of *completed unit
// simulations*. The key is appendUnitKey's bit-exact serialisation
// of every input a unit simulation reads: machine spec, core.Options, RI,
// the engine tunables, a caller-supplied strategy identity digest, the
// blackout plan, the seed, and the application template list, floats
// encoded by their IEEE-754 bit patterns — and the value is the unit's
// unitOut (summary counters plus entropy samples). A hit therefore replays
// the exact record the identical computation produced elsewhere, and
// output stays byte-identical by construction; only wall time changes.
// Entries are published through a single-flight protocol: the first
// goroutine to reach a key claims it and simulates, racers wait on the
// entry's done channel instead of duplicating the work.
//
// The strategy digest is the one key component the engine cannot derive
// itself: Config.NewStrategy is an opaque factory, so the caller must
// declare what it builds (Config.StrategyDigest) and Run refuses a
// NodeCache without one. Two sweeps sharing a cache across different
// strategies must use distinct digests or they would adopt each other's
// records.

import (
	"sort"
	"sync"

	"ahq/internal/sim"
)

// nodeCacheShardCount keeps parallel shard workers from serialising on one
// lock; a small power of two keeps the shard pick free.
const nodeCacheShardCount = 8

// nodeCacheShardMaxEntries bounds each shard. As with the engine's solve
// memo the bound exists to cap memory under adversarial key diversity, not to
// evict: a full shard stops accepting inserts and keeps its early entries.
// 8 shards x 1024 entries covers every unique node content a fleet sweep
// of tens of thousands of nodes produces over a quantised population.
const nodeCacheShardMaxEntries = 1 << 10

// NodeCache is a sweep-scoped, concurrency-safe, bounded cache of
// completed node simulations. The zero value is not usable; construct
// with NewNodeCache. See the package comment above for the contract.
type NodeCache struct {
	shards [nodeCacheShardCount]nodeCacheShard
}

type nodeCacheShard struct {
	mu      sync.Mutex
	entries map[string]*nodeCacheEntry // guarded by mu
	hits    uint64                     // guarded by mu
	misses  uint64                     // guarded by mu
	full    uint64                     // guarded by mu
}

// nodeCacheEntry is one cached (or in-flight) node simulation. The
// claiming goroutine writes out/err exactly once and then closes done;
// everyone else waits on done before reading, so the fields need no lock.
type nodeCacheEntry struct {
	done chan struct{}
	out  unitOut // guarded by done
	err  error   // guarded by done
}

// NodeCacheStats counts cache traffic. Hits and misses depend only on the
// sequence of Run invocations sharing the cache, but with racing callers
// the split between a hit and a single-flight wait depends on scheduling —
// so, like FleetStats, the counters are for logs and benchmarks, never for
// deterministic output.
type NodeCacheStats struct {
	// Hits counts lookups that found an entry (completed or in flight).
	Hits uint64
	// Misses counts claims: lookups that went on to simulate and publish.
	Misses uint64
	// Full counts lookups that found no entry and could not claim one
	// because the shard was at capacity; the caller simulated without
	// publishing.
	Full uint64
}

// NewNodeCache returns an empty cache ready for concurrent use.
func NewNodeCache() *NodeCache {
	c := &NodeCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*nodeCacheEntry) //ahqlint:allow lockcheck construction precedes sharing; no other goroutine can hold the cache yet
	}
	return c
}

// Len reports the number of cached node simulations, including in-flight
// claims (for tests and telemetry).
func (c *NodeCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the accumulated counters.
func (c *NodeCache) Stats() NodeCacheStats {
	var st NodeCacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Full += s.full
		s.mu.Unlock()
	}
	return st
}

// shardFor picks the shard by FNV-1a over the key.
func (c *NodeCache) shardFor(key string) *nodeCacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%nodeCacheShardCount]
}

// lookup returns the entry under key, if any — completed or in flight; the
// caller waits on entry.done before reading. The fast path of every cached
// node in a warm sweep.
//
//ahq:hotpath
func (c *NodeCache) lookup(key string) (*nodeCacheEntry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return e, ok
}

// claim inserts an in-flight entry under key and returns it with
// claimed=true: the caller must simulate and publish via complete, or
// racers waiting on the entry would block forever. When a racer claimed
// the key first the existing entry is returned with claimed=false (wait on
// it like a lookup hit), and when the shard is full claim returns
// (nil, false): simulate without publishing.
func (c *NodeCache) claim(key string) (e *nodeCacheEntry, claimed bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.hits++
		s.mu.Unlock()
		return e, false
	}
	if len(s.entries) >= nodeCacheShardMaxEntries {
		s.full++
		s.mu.Unlock()
		return nil, false
	}
	e = &nodeCacheEntry{done: make(chan struct{})}
	s.entries[key] = e
	s.misses++
	s.mu.Unlock()
	return e, true
}

// complete publishes a claimed entry's simulation outcome and wakes every
// waiter.
func (e *nodeCacheEntry) complete(out unitOut, err error) {
	e.out, e.err = out, err
	close(e.done)
}

// publish completes a claimed entry and, when the simulation errored,
// drops the entry from its shard after the waiters are released. Errors
// must not be cached: a permanently published error would poison the
// content-address for the whole sweep, replaying the failure as a hit on
// every later lookup, when the right behaviour is to let the unit be
// re-simulated (the engine absorbs the failure into a dead record either
// way, but a transient claimant bug must not become a sweep-wide fact).
// The identity check keeps a racing re-claimant's fresh entry intact.
func (c *NodeCache) publish(key string, e *nodeCacheEntry, out unitOut, err error) {
	e.complete(out, err)
	if err == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if s.entries[key] == e {
		delete(s.entries, key)
	}
	s.mu.Unlock()
}

// wait blocks until the entry is published and returns its outcome.
func (e *nodeCacheEntry) wait() (unitOut, error) {
	<-e.done
	return e.out, e.err
}

// templateKey canonically serialises one node's application template — the
// Apps slice a node simulation would be constructed with, in order. It
// reports ok=false when some application is not key-serialisable (a load
// profile outside trace's catalog); such units are simulated uncached and
// never grouped with any other unit.
func templateKey(apps []sim.AppConfig) (key []byte, ok bool) {
	return appendTemplateKey(make([]byte, 0, 96*len(apps)), apps)
}

// appendTemplateKey appends templateKey's serialisation to b.
func appendTemplateKey(b []byte, apps []sim.AppConfig) (_ []byte, ok bool) {
	b = sim.AppendKeyInt(b, len(apps))
	for _, a := range apps {
		if b, ok = sim.AppendAppKey(b, a); !ok {
			return nil, false
		}
	}
	return b, true
}

// appendUnitKey appends a unit's content address to b: a serialisation of
// every input the unit's simulation reads, used both to group equal units
// within a Run and as the NodeCache key across Runs. It covers capacity,
// controller options (post-default, so spelling a default explicitly
// cannot split the key), the aggregation RI, the engine tunables the
// cluster engine runs (DefaultTunables — Run constructs its engines
// without overrides, and the serialisation pins that assumption), the
// strategy digest, the blackout plan, the seed, and the application
// template. It reports ok=false when the template is not
// key-serialisable.
func appendUnitKey(b []byte, cfg *Config, u simUnit, ri float64) (_ []byte, ok bool) {
	o := u.opts.WithDefaults()
	b = sim.AppendKeyInt(b, u.spec.Cores)
	b = sim.AppendKeyInt(b, u.spec.LLCWays)
	b = sim.AppendKeyInt(b, u.spec.MemBWUnits)
	b = sim.AppendKeyFloat(b, u.spec.MemBWGBps)
	b = sim.AppendKeyFloat(b, o.EpochMs)
	b = sim.AppendKeyFloat(b, o.WarmupMs)
	b = sim.AppendKeyFloat(b, o.DurationMs)
	b = sim.AppendKeyFloat(b, o.RI)
	if o.RecordTimeline {
		b = append(b, 'T')
	}
	b = sim.AppendKeyFloat(b, ri)
	b = sim.AppendTunablesKey(b, sim.DefaultTunables())
	b = sim.AppendKeyString(b, cfg.StrategyDigest)
	b = sim.AppendKeyString(b, u.blackout.String())
	b = sim.AppendKeyInt64(b, u.seed)
	b = append(b, '|')
	return appendTemplateKey(b, u.apps)
}

// TemplateSeed derives a node seed from the node's application template:
// equal templates get equal seeds, which is the common-random-numbers
// policy screening sweeps want — identical node contents become identical
// simulations, so Run simulates them once and a NodeCache can replay them
// across Runs. The base seed perturbs the whole
// assignment, so distinct sweeps stay independent. Templates that are not
// key-serialisable fall back to a name-signature hash: still deterministic
// and still CRN across equal-looking nodes, merely coarser (seeds may
// coincide across templates that differ only in unserialisable state,
// which is harmless — Run never groups such nodes).
func TemplateSeed(base int64, apps []sim.AppConfig) int64 {
	h := uint64(14695981039346656037)
	mix := func(bs []byte) {
		for _, c := range bs {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	var seedBuf [8]byte
	for i := 0; i < 8; i++ {
		seedBuf[i] = byte(uint64(base) >> (8 * i))
	}
	mix(seedBuf[:])
	if k, ok := templateKey(apps); ok {
		mix(k)
	} else {
		for _, a := range apps {
			mix([]byte(a.Name()))
			mix([]byte{';'})
		}
	}
	return int64(h)
}

// CanonicalOrder returns the node's applications sorted into a canonical
// order (by their serialised template keys, name-tagged fallback for
// unserialisable apps, input order as the final tiebreak). Placement
// strategies emit the same node content in whatever order their internals
// happened to append it; a sweep that canonicalises each node before
// simulating makes "same multiset of applications" mean "same simulation",
// which is what lets Run's grouping and the NodeCache recognise
// recurrences across placements. The input slice is not modified.
func CanonicalOrder(apps []sim.AppConfig) []sim.AppConfig {
	if len(apps) < 2 {
		return apps
	}
	type keyed struct {
		app sim.AppConfig
		key string
	}
	ks := make([]keyed, len(apps))
	for i, a := range apps {
		if k, ok := sim.AppendAppKey(nil, a); ok {
			ks[i] = keyed{a, string(k)}
		} else {
			// Unserialisable apps sort after serialisable ones, by name.
			ks[i] = keyed{a, "\xff" + a.Name()}
		}
	}
	if sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i].key < ks[j].key }) {
		return apps
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]sim.AppConfig, len(apps))
	for i, k := range ks {
		out[i] = k.app
	}
	return out
}

// CanonicalizePlacement applies CanonicalOrder to every node of a
// placement, returning a new outer slice (shared inner slices when a node
// was already canonical).
func CanonicalizePlacement(placement [][]sim.AppConfig) [][]sim.AppConfig {
	out := make([][]sim.AppConfig, len(placement))
	for i, apps := range placement {
		out[i] = CanonicalOrder(apps)
	}
	return out
}
