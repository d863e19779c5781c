// Package cluster scales the Ah-Q model from one node to a datacenter
// fleet: thousands of simulated nodes, each managed by its own controller
// and strategy instance, with the system entropy aggregated over every
// collocated application in the fleet. The paper defines E_S "in a
// datacenter"; this package is the multi-node reading of that definition,
// and shows how E_S ranks *placements* the same way it ranks schedulers.
//
// Run is one pipeline for every fleet run. The supervisor
// (supervisor.go) cuts the horizon into phases at each configuration
// change a FleetPlan dictates — a run without a plan is one phase holding
// the caller's placement — and each (phase, node) becomes one simulation
// unit. Units with equal content keys are grouped before sharding, so each
// distinct simulation runs once; the groups fan out over a bounded worker
// pool (internal/pool, the same implementation the experiment harness
// uses) in contiguous shards, and a sweep-scoped NodeCache can replay
// groups an earlier Run already simulated. Aggregation is streaming: each
// group keeps only its compact counters and run-level entropy samples,
// and one weighted merge walks the units in (phase, node) order — so a
// 5000-node fleet fits comfortably in memory and the result is
// byte-identical at every parallelism level.
package cluster

import (
	"fmt"
	"math"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/faults"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sched"
	"ahq/internal/sim"
	"ahq/internal/workload"
)

// Config describes a homogeneous cluster run.
type Config struct {
	// Spec is each node's capacity.
	Spec machine.Spec
	// Seed drives all nodes deterministically (node i uses Seed+i).
	Seed int64
	// NewStrategy builds one strategy instance per simulation unit. It is
	// called from shard workers, so it must be safe for concurrent calls,
	// must return a fresh instance every time (strategies are stateful),
	// and must not depend on the node index: units with equal content are
	// simulated once, with the strategy built for the first of them.
	NewStrategy func(node int) sched.Strategy
	// Placement assigns the application set to nodes: Placement[i] holds
	// node i's applications. Every node needs at least one application.
	Placement [][]sim.AppConfig
	// RI is the relative importance for the global entropy; 0 means the
	// paper's 0.8.
	RI float64
	// Parallel bounds how many node simulations run simultaneously;
	// <= 0 means runtime.NumCPU(), 1 runs the shards sequentially.
	// Results are merged in (phase, node) order, so the output is
	// identical at every parallelism level.
	Parallel int
	// NodeSeed optionally overrides the per-node seed policy; nil means
	// node i runs with Seed+i (independent stochastic streams per node).
	// Screening runs that want common random numbers across replicated
	// node templates supply a policy returning equal seeds for equal
	// templates; nodes whose seed and template coincide are then one
	// simulation, run once.
	NodeSeed func(node int) int64
	// NodeCache optionally supplies a sweep-scoped cache of completed
	// unit simulations (nodecache.go): before simulating a group the
	// engine looks up its content-addressed key — every input the
	// simulation reads, bit-exactly — and a hit replays the record the
	// identical computation produced in an earlier Run (or in a racing
	// shard, via single-flight). Byte-identical output by construction;
	// only wall time changes. Requires StrategyDigest.
	NodeCache *NodeCache
	// StrategyDigest declares the identity of what NewStrategy builds —
	// the one simulation input the engine cannot serialise itself, since
	// the factory is opaque. Required when NodeCache is set; the digest
	// must change whenever the strategy's behaviour (type, config,
	// tunables) does.
	StrategyDigest string
	// FleetPlan optionally schedules fleet-scope faults — node crashes,
	// capacity degradations, telemetry blackouts (faults.FleetPlan). The
	// supervisor cuts the horizon at every configuration change, each
	// phase simulates fresh, and aggregation weighs samples by measured
	// epochs with dead windows accounted explicitly. Under a plan each
	// node's applications run in CanonicalOrder with content-wise seeds
	// (TemplateSeed), so the plan is incompatible with NodeSeed.
	// Unresolved plans are resolved against (Seed, len(Placement)).
	FleetPlan *faults.FleetPlan
	// ReplaceEvicted turns on failure-aware re-placement under a
	// FleetPlan: a crashed node's applications are evicted and re-placed
	// onto surviving nodes through the interference scorer, with capped
	// retries, exponential backoff and a churn bound (supervisor.go).
	// Off, a crashed node's applications stay assigned and dead until the
	// node restarts.
	ReplaceEvicted bool
}

// NodeSummary is the compact per-node record the fleet engine keeps in
// place of a full core.Result: the node's run-level entropies and the
// counters fleet-level reporting aggregates.
type NodeSummary struct {
	Node int
	// ELC/EBE/ES are the node's run-level entropies over its
	// epoch-weighted samples, dead windows included, under Config.RI; for
	// a node simulated as one unit whose controller uses the same RI they
	// are its core.Result.RunELC etc. NaN when the node had no computable
	// samples.
	ELC, EBE, ES float64
	// Yield is the node-local epoch-weighted satisfied fraction of its LC
	// applications.
	Yield float64
	// LCApps and BEApps count the node's applications by class.
	LCApps, BEApps int
	// ViolationEpochs sums LC violation epochs over the node's apps.
	ViolationEpochs int
	// Epochs counts the node's measured monitoring intervals (simulated
	// alive epochs only; dead windows are accounted via ViolationEpochs
	// and the fleet's LCAppEpochs, never as measured intervals).
	Epochs int
	// Incidents counts degradation events the node's controller survived.
	Incidents int
	// Failed marks a node that did not run healthy to completion: its
	// simulation errored (the fleet engine absorbs the error into
	// saturated dead-window samples instead of aborting the run), or a
	// FleetPlan crashed it at some epoch.
	Failed bool
	// DownEpochs counts epochs (warm-up included) the node was dead: the
	// span of every unit whose simulation errored, plus the crash
	// coverage under a FleetPlan.
	DownEpochs int
	// Evictions counts applications the supervisor evicted from this node
	// at its crash epochs (ReplaceEvicted only).
	Evictions int
}

// FleetStats aggregates fleet-wide counters. The solve/cache counters
// depend on worker scheduling (which shard reached a NodeCache key first),
// so they are for benchmarks and logs, never deterministic output. The
// incident counters (FailedNodes, DownEpochs, Evictions) are derived from
// the per-node summaries and ARE deterministic.
type FleetStats struct {
	// NodesRun counts the fleet's logical nodes.
	NodesRun int
	// NodesSimulated counts units actually simulated: one per group of
	// equal-content units that Config.NodeCache did not replay. Without
	// a FleetPlan a unit is a node, so it is at most NodesRun; under a
	// plan every phase contributes units and it can exceed NodesRun.
	NodesSimulated int
	// MemoHits are per-engine memo hits, Solves are full fixed-point
	// solves.
	MemoHits, Solves uint64
	// NodeCacheHits counts unit groups whose simulation was replayed
	// from Config.NodeCache instead of being run.
	NodeCacheHits uint64
	// FailedNodes counts nodes with NodeSummary.Failed set; DownEpochs and
	// Evictions sum the corresponding per-node counters. Deterministic.
	FailedNodes, DownEpochs, Evictions int
}

// Result aggregates a cluster run.
type Result struct {
	// Summaries holds the compact per-node records, in node order.
	Summaries []NodeSummary
	// GlobalELC/GlobalEBE/GlobalES are computed over the pooled run-level
	// samples of every application in the cluster — the datacenter-wide
	// E_S of the paper's definition.
	GlobalELC, GlobalEBE, GlobalES float64
	// GlobalYield is the satisfied fraction over all LC applications.
	// Meaningful only when YieldDefined; a fleet with no LC samples has no
	// yield (GlobalYield stays 0 and YieldDefined false).
	GlobalYield float64
	// YieldDefined reports whether GlobalYield was computable.
	YieldDefined bool
	// TotalViolationEpochs sums LC violation epochs over every node.
	TotalViolationEpochs int
	// MeasuredEpochs sums the per-node measured monitoring intervals.
	MeasuredEpochs int
	// LCAppEpochs is the LC-application-epoch denominator of
	// ViolationRate: alive LC app-epochs plus dead LC app-epochs (which
	// all count as violations).
	LCAppEpochs int
	// Evictions/Replacements/Abandoned count the supervisor's actions
	// under a FleetPlan with ReplaceEvicted; MeanRecoveryEpochs averages
	// eviction-to-re-placement latency over successful re-placements.
	Evictions, Replacements, Abandoned int
	MeanRecoveryEpochs                 float64
	// Stats carries fleet-wide counters.
	Stats FleetStats
}

// ViolationRate is the fleet's LC violation fraction: violation epochs per
// measured LC-application-epoch, dead LC app-epochs counting on both
// sides. Zero when the fleet has no LC epochs.
func (r *Result) ViolationRate() float64 {
	if r.LCAppEpochs == 0 {
		return 0
	}
	return float64(r.TotalViolationEpochs) / float64(r.LCAppEpochs)
}

// nodeSeed applies the configured per-node seed policy.
func nodeSeed(cfg *Config, i int) int64 {
	if cfg.NodeSeed != nil {
		return cfg.NodeSeed(i)
	}
	return cfg.Seed + int64(i)
}

// unitOut is one simulated group's streaming record: the counters the
// merge adds to each member's node, and the run-level entropy samples it
// pools (entropies are computed at the merge, under the phase weights).
type unitOut struct {
	epochs, violationEpochs, incidents, lcApps int
	// failed marks a unit whose simulation errored; downEpochs is then
	// its whole span.
	failed     bool
	downEpochs int
	lc         []entropy.LCSample
	be         []entropy.BESample
}

// shardAccum is one shard's streaming accumulator: group records for a
// contiguous group range, appended in group order as each simulation
// finishes and its full result is dropped, plus the shard's solve and
// cache counters.
type shardAccum struct {
	outs  []unitOut
	stats FleetStats
}

// shardsFor picks the shard count: enough shards per worker that an
// unlucky slow shard cannot serialise the tail of the run, never more
// shards than groups. The count never affects results — the merge walks
// units in (phase, node) order regardless of how the groups were cut.
func shardsFor(groups, workers int) int {
	s := workers * 4
	if s > groups {
		s = groups
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Run drives every node of the fleet over the horizon and aggregates:
// resolve the plan, let the supervisor cut the phase schedule, build one
// unit per live (phase, node), group equal units, simulate each group
// once, and merge.
func Run(cfg Config, opts core.Options) (*Result, error) {
	if len(cfg.Placement) == 0 {
		return nil, fmt.Errorf("cluster: empty placement")
	}
	if cfg.NewStrategy == nil {
		return nil, fmt.Errorf("cluster: no strategy factory")
	}
	for i, apps := range cfg.Placement {
		if len(apps) == 0 {
			return nil, fmt.Errorf("cluster: node %d has no applications", i)
		}
	}
	if cfg.NodeCache != nil && cfg.StrategyDigest == "" {
		return nil, fmt.Errorf("cluster: NodeCache requires a StrategyDigest (the strategy factory is opaque; declare what it builds)")
	}
	if !cfg.FleetPlan.Empty() && cfg.NodeSeed != nil {
		return nil, fmt.Errorf("cluster: FleetPlan cannot be combined with NodeSeed (phases seed content-wise via TemplateSeed)")
	}
	ri := cfg.RI
	if ri == 0 {
		ri = entropy.DefaultRI
	}

	// Resolve draws victims for unresolved events and validates resolved
	// ones against the fleet size; a pure function of (plan, Seed, n). No
	// plan resolves to an empty one, which the supervisor turns into a
	// single phase over the caller's placement.
	plan, err := cfg.FleetPlan.Resolve(cfg.Seed, len(cfg.Placement))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	o := opts.WithDefaults()
	total := int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
	sched := supervise(plan, cfg.Placement, cfg.Spec, cfg.ReplaceEvicted, total)
	shapes := phaseShapes(sched.phases, opts, total)
	refs, groups := buildUnits(&cfg, plan, sched, shapes, ri)
	outs, stats, err := runUnits(&cfg, groups)
	if err != nil {
		return nil, err
	}
	return merge(&cfg, ri, sched, shapes, refs, outs, stats)
}

// phaseShape is how one phase simulates and weighs: the controller
// options its units run with, its measured epochs, and the weight of its
// samples in the merge.
type phaseShape struct {
	opts     core.Options
	measured int
	weight   float64
}

// phaseShapes derives every phase's shape. A phase overlapping the
// warm-up window carries the overlap as its own warm-up; later phases run
// unwarmed; phases entirely inside warm-up measure nothing. A phase that
// spans the whole horizon runs the caller's options unchanged. Samples
// weigh by their phase's measured epochs, except that a run with a
// single measured phase weighs every sample exactly 1: 1·x and Σ1 = n are
// exact, so the weighted merge reproduces the unweighted pooled entropies
// and yield bit for bit.
func phaseShapes(phases []fleetPhase, opts core.Options, total int) []phaseShape {
	o := opts.WithDefaults()
	warmEpochs := int(math.Ceil(o.WarmupMs / o.EpochMs))
	shapes := make([]phaseShape, len(phases))
	measuredPhases := 0
	for pi, ph := range phases {
		length := ph.end - ph.start
		warmIn := warmEpochs - ph.start
		if warmIn < 0 {
			warmIn = 0
		} else if warmIn > length {
			warmIn = length
		}
		sh := &shapes[pi]
		sh.measured = length - warmIn
		if sh.measured == 0 {
			continue
		}
		measuredPhases++
		sh.weight = float64(sh.measured)
		if ph.start == 0 && ph.end == total {
			sh.opts = opts
			continue
		}
		sh.opts = core.Options{
			EpochMs:    o.EpochMs,
			DurationMs: float64(sh.measured) * o.EpochMs,
			RI:         o.RI,
		}
		if warmIn > 0 {
			sh.opts.WarmupMs = float64(warmIn) * o.EpochMs
		} else {
			sh.opts.WarmupMs = -1 // negative = no warm-up, 0 would mean the default
		}
	}
	if measuredPhases == 1 {
		for pi := range shapes {
			if shapes[pi].measured > 0 {
				shapes[pi].weight = 1
			}
		}
	}
	return shapes
}

// unitRef addresses one simulated (phase, node) slot of the schedule and
// the group whose record it reads.
type unitRef struct {
	phase, node, group int
}

// buildUnits lowers the schedule to simulation units in (phase, node)
// order and groups units with equal content keys: refs lists every unit,
// groups holds each group's first unit, in first-appearance order. A unit
// without a key (its template is not key-serialisable) is its own group.
// Down and empty nodes simulate nothing, nor do phases that measure
// nothing. Without a plan each node runs its applications as placed under
// its nodeSeed; under a plan they run in CanonicalOrder with content-wise
// seeds, so equal phase contents become equal simulations.
func buildUnits(cfg *Config, plan *faults.FleetPlan, sched *fleetSchedule, shapes []phaseShape, ri float64) (refs []unitRef, groups []shardUnit) {
	n := len(cfg.Placement)
	planned := !plan.Empty()
	refs = make([]unitRef, 0, n)
	groups = make([]shardUnit, 0, n)
	index := make(map[string]int, n)
	var buf []byte
	for pi := range sched.phases {
		ph := &sched.phases[pi]
		if shapes[pi].measured == 0 {
			continue
		}
		for nd := 0; nd < n; nd++ {
			if ph.down[nd] || len(ph.assign[nd]) == 0 {
				continue
			}
			u := simUnit{node: nd, apps: ph.assign[nd], spec: cfg.Spec, opts: shapes[pi].opts}
			if planned {
				u.apps = CanonicalOrder(u.apps)
				u.seed = TemplateSeed(cfg.Seed, u.apps)
				u.blackout = plan.BlackoutPlan(nd, ph.start, ph.end)
			} else {
				u.seed = nodeSeed(cfg, nd)
			}
			if ph.degraded[nd] {
				u.spec = faults.DegradedSpec(u.spec)
			}
			// The key is built in a reused buffer and looked up without
			// copying; only a new group's key becomes a string.
			var keyed, dup bool
			g := 0
			if buf, keyed = appendUnitKey(buf[:0], cfg, u, ri); keyed {
				g, dup = index[string(buf)]
			}
			if !dup {
				g = len(groups)
				su := shardUnit{unit: u}
				if keyed {
					key := string(buf)
					index[key] = g
					if cfg.NodeCache != nil {
						su.key = key
					}
				}
				groups = append(groups, su)
			}
			refs = append(refs, unitRef{phase: pi, node: nd, group: g})
		}
	}
	return refs, groups
}

// merge aggregates the group records into the fleet result. It walks the
// units in (phase, node) order — fixed before sharding, so identical at
// every parallelism level — pooling each unit's samples under its phase
// weight, and accounts dead windows explicitly: an application on a
// crashed node (no-replace), or evicted and not yet — or never —
// re-placed, contributes a saturated sample weighted like its phase, and
// each such LC app-epoch counts as a violation. The sample set never
// silently shrinks because a node died.
func merge(cfg *Config, ri float64, sched *fleetSchedule, shapes []phaseShape, refs []unitRef, outs []unitOut, stats FleetStats) (*Result, error) {
	n := len(cfg.Placement)
	res := &Result{Summaries: make([]NodeSummary, n), Stats: stats}
	res.Stats.NodesRun = n
	nodeLC := make([][]entropy.Weighted[entropy.LCSample], n)
	nodeBE := make([][]entropy.Weighted[entropy.BESample], n)
	var allLC []entropy.Weighted[entropy.LCSample]
	var allBE []entropy.Weighted[entropy.BESample]
	for i := 0; i < n; i++ {
		s := &res.Summaries[i]
		s.Node = i
		for _, a := range cfg.Placement[i] {
			if a.LC != nil {
				s.LCApps++
			} else if a.BE != nil {
				s.BEApps++
			}
		}
		s.Failed = sched.crashed[i]
		s.DownEpochs = sched.downEpochsByNode[i]
		s.Evictions = sched.evictionsByNode[i]
	}
	for _, r := range refs {
		co := &outs[r.group]
		w := shapes[r.phase].weight
		s := &res.Summaries[r.node]
		s.Epochs += co.epochs
		s.ViolationEpochs += co.violationEpochs
		s.Incidents += co.incidents
		if co.failed {
			s.Failed = true
			s.DownEpochs += co.downEpochs
		}
		res.MeasuredEpochs += co.epochs
		res.TotalViolationEpochs += co.violationEpochs
		res.LCAppEpochs += co.lcApps * co.epochs
		for _, smp := range co.lc {
			ws := entropy.Weighted[entropy.LCSample]{Sample: smp, Weight: w}
			allLC = append(allLC, ws)
			nodeLC[r.node] = append(nodeLC[r.node], ws)
		}
		for _, smp := range co.be {
			ws := entropy.Weighted[entropy.BESample]{Sample: smp, Weight: w}
			allBE = append(allBE, ws)
			nodeBE[r.node] = append(nodeBE[r.node], ws)
		}
	}
	// Dead windows, attributed to the application's (home) node.
	for pi := range sched.phases {
		measured := shapes[pi].measured
		if measured == 0 {
			continue
		}
		w := shapes[pi].weight
		for _, d := range sched.phases[pi].dead {
			s := &res.Summaries[d.node]
			switch {
			case d.app.LC != nil:
				ws := entropy.Weighted[entropy.LCSample]{Sample: deadLCSample(d.app), Weight: w}
				allLC = append(allLC, ws)
				nodeLC[d.node] = append(nodeLC[d.node], ws)
				s.ViolationEpochs += measured
				res.TotalViolationEpochs += measured
				res.LCAppEpochs += measured
			case d.app.BE != nil:
				ws := entropy.Weighted[entropy.BESample]{Sample: deadBESample(d.app), Weight: w}
				allBE = append(allBE, ws)
				nodeBE[d.node] = append(nodeBE[d.node], ws)
			}
		}
	}

	// Per-node entropies and yield over each node's own weighted samples;
	// a node with no samples at all (everything moved away, nothing
	// placed) reports NaN. The incident counters sum the summaries.
	for i := 0; i < n; i++ {
		s := &res.Summaries[i]
		if s.Failed {
			res.Stats.FailedNodes++
		}
		res.Stats.DownEpochs += s.DownEpochs
		res.Stats.Evictions += s.Evictions
		elc, ebe, es, err := entropy.WeightedSystem{RI: ri}.Compute(nodeLC[i], nodeBE[i])
		if err == nil {
			s.ELC, s.EBE, s.ES = elc, ebe, es
		} else {
			s.ELC, s.EBE, s.ES = math.NaN(), math.NaN(), math.NaN()
		}
		if sat, tot := weightedSatisfied(nodeLC[i]); tot > 0 {
			s.Yield = sat / tot
		}
	}

	elc, ebe, es, err := entropy.WeightedSystem{RI: ri}.Compute(allLC, allBE)
	if err != nil {
		return nil, fmt.Errorf("cluster: global entropy: %w", err)
	}
	res.GlobalELC, res.GlobalEBE, res.GlobalES = elc, ebe, es
	// A fleet without LC samples has no yield: recorded explicitly via
	// YieldDefined == false rather than a 0 that reads as "every app
	// violated".
	if sat, tot := weightedSatisfied(allLC); tot > 0 {
		res.GlobalYield, res.YieldDefined = sat/tot, true
	}

	res.Evictions = sched.evictions
	res.Replacements = sched.replacements
	res.Abandoned = sched.abandoned
	if sched.replacements > 0 {
		res.MeanRecoveryEpochs = float64(sched.recoverySum) / float64(sched.replacements)
	}
	return res, nil
}

// weightedSatisfied returns the satisfied and total weight of a weighted
// LC sample set — the epoch-weighted yield numerator and denominator.
func weightedSatisfied(samples []entropy.Weighted[entropy.LCSample]) (sat, tot float64) {
	for _, s := range samples {
		tot += s.Weight
		if s.Sample.Satisfied() {
			sat += s.Weight
		}
	}
	return sat, tot
}

// runUnits fans the group list out over the worker pool in contiguous
// shards and returns the group records in group order with the summed
// shard counters. A failing shard does not strand its siblings: every
// future is drained before the first error is returned, so no shard
// outlives Run.
func runUnits(cfg *Config, groups []shardUnit) ([]unitOut, FleetStats, error) {
	ex := workpool.New(cfg.Parallel)
	shards := shardsFor(len(groups), ex.Workers())
	futs := make([]*workpool.Future[*shardAccum], 0, shards)
	for s := 0; s < shards; s++ {
		// Contiguous ranges, remainder spread over the leading shards.
		lo := s * len(groups) / shards
		hi := (s + 1) * len(groups) / shards
		shard := s
		futs = append(futs, workpool.Submit(ex, func() (*shardAccum, error) {
			return runShard(cfg, shard, groups[lo:hi])
		}))
	}
	outs := make([]unitOut, 0, len(groups))
	var stats FleetStats
	var firstErr error
	for _, f := range futs {
		acc, err := f.Wait()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		outs = append(outs, acc.outs...)
		stats.NodesSimulated += acc.stats.NodesSimulated
		stats.MemoHits += acc.stats.MemoHits
		stats.Solves += acc.stats.Solves
		stats.NodeCacheHits += acc.stats.NodeCacheHits
	}
	if firstErr != nil {
		return nil, FleetStats{}, firstErr
	}
	return outs, stats, nil
}

// uniquify disambiguates duplicate workload names on one node with an
// instance suffix ("xapian", "xapian#2", ...). Fleet populations replicate
// a small catalog of service templates, so placements routinely co-locate
// two instances of the same template; the engine requires distinct names.
// Renaming copies the workload struct — the name never enters any
// numeric path, so instances simulate exactly like identically-named apps
// would. Placements with unique names pass through untouched.
func uniquify(apps []sim.AppConfig) []sim.AppConfig {
	seen := make(map[string]int, len(apps))
	out := apps
	for i, a := range apps {
		name := a.Name()
		seen[name]++
		n := seen[name]
		if n == 1 {
			continue
		}
		if &out[0] == &apps[0] {
			out = append([]sim.AppConfig(nil), apps...)
		}
		switch {
		case a.LC != nil:
			lc := *a.LC
			lc.Name = fmt.Sprintf("%s#%d", name, n)
			out[i].LC = &lc
		case a.BE != nil:
			be := *a.BE
			be.Name = fmt.Sprintf("%s#%d", name, n)
			out[i].BE = &be
		}
	}
	return out
}

// simUnit is one node simulation the engine must run for one phase: the
// node (for error labels and the strategy factory), its applications,
// capacity, seed, controller options, and an optional node-local
// telemetry-blackout plan.
type simUnit struct {
	node     int
	apps     []sim.AppConfig
	spec     machine.Spec
	seed     int64
	opts     core.Options
	blackout *faults.Plan
}

// shardUnit is one group's representative unit paired with its
// content-addressed NodeCache key; an empty key means uncached (no cache
// configured, or the template is not key-serialisable).
type shardUnit struct {
	key  string
	unit simUnit
}

// shardFailHook, when non-nil, injects a shard-level failure before the
// shard simulates anything. Set only by tests, to exercise runUnits'
// future-drain path — production shards have no error source of their own
// left (unit failures are absorbed into dead records).
var shardFailHook func(shard int) error

// runShard drives a contiguous range of groups, streaming each group's
// record into the shard accumulator. With a NodeCache configured each
// keyed group first resolves its content-addressed key: a published entry
// replays the identical simulation's record, an in-flight entry is waited
// on (a racing shard — possibly of another Run sharing the cache — is
// computing this exact unit right now), and otherwise the shard simulates
// the unit itself, publishing the outcome when it claimed the key. A unit
// whose simulation errors no longer kills the fleet: the error is
// published (and its cache entry dropped, so the key can be re-simulated),
// then absorbed into a Failed record carrying saturated dead-window
// samples, and the run continues. Each full core.Result is dropped as soon
// as it is condensed into its record.
func runShard(cfg *Config, shard int, groups []shardUnit) (*shardAccum, error) {
	if shardFailHook != nil {
		if err := shardFailHook(shard); err != nil {
			return nil, err
		}
	}
	acc := &shardAccum{outs: make([]unitOut, 0, len(groups))}
	for _, su := range groups {
		var entry *nodeCacheEntry
		if su.key != "" {
			if e, ok := cfg.NodeCache.lookup(su.key); ok {
				if co, err := e.wait(); err == nil {
					acc.outs = append(acc.outs, co)
					acc.stats.NodeCacheHits++
					continue
				}
				// The claimant's simulation failed and its entry was
				// dropped; fall through and re-simulate locally.
			}
			if e, claimed := cfg.NodeCache.claim(su.key); claimed {
				entry = e
			} else if e != nil {
				// Lost the claim race: adopt the racer's record, unless
				// the racer failed — then simulate unpublished.
				if co, err := e.wait(); err == nil {
					acc.outs = append(acc.outs, co)
					acc.stats.NodeCacheHits++
					continue
				}
			}
			// entry == nil here means the shard was full or a racer
			// failed: simulate without publishing.
		}
		co, err := simulateUnit(cfg, su.unit, &acc.stats)
		if entry != nil {
			cfg.NodeCache.publish(su.key, entry, co, err)
		}
		if err != nil {
			// Absorb the failure: the node is recorded dead for the whole
			// unit span instead of aborting every sibling simulation.
			co = deadUnitOut(su.unit)
		}
		acc.outs = append(acc.outs, co)
		acc.stats.NodesSimulated++
	}
	return acc, nil
}

// simulateUnit runs one unit's simulation end to end, condenses it into
// its record and adds the engine's solve counters to stats. A blackout
// plan wraps the engine with the faults drop injector so every
// application's telemetry vanishes over the planned epochs.
func simulateUnit(cfg *Config, u simUnit, stats *FleetStats) (unitOut, error) {
	engine, err := sim.New(sim.Config{Spec: u.spec, Seed: u.seed, Apps: uniquify(u.apps)})
	if err != nil {
		return unitOut{}, fmt.Errorf("cluster: node %d: %w", u.node, err)
	}
	var drive core.Engine = engine
	if !u.blackout.Empty() {
		drive = faults.NewInjector(u.blackout).Engine(engine)
	}
	nodeRes, err := core.Run(drive, cfg.NewStrategy(u.node), u.opts)
	if err != nil {
		return unitOut{}, fmt.Errorf("cluster: node %d: %w", u.node, err)
	}
	hits, solves := engine.SolveStats()
	stats.MemoHits += hits
	stats.Solves += solves
	co := unitOut{
		epochs:          nodeRes.Epochs,
		violationEpochs: nodeRes.TotalViolationEpochs,
		incidents:       len(nodeRes.Incidents),
	}
	for _, a := range nodeRes.Apps {
		if a.Spec.Class == workload.LC {
			co.lcApps++
			if a.LCSample.Validate() == nil {
				co.lc = append(co.lc, a.LCSample)
			}
		} else if a.BESample.Validate() == nil {
			co.be = append(co.be, a.BESample)
		}
	}
	return co, nil
}

// deadUnitOut condenses a unit that could not run into a Failed record
// with saturated dead-window samples, mirroring the clamps of
// core.SamplesFromWindows (a dead LC application pins its latency at
// 1000x its target, a dead BE application retains a sliver of its solo
// IPC), so fleet aggregation accounts the dead windows explicitly instead
// of silently shrinking the sample set. Every measured epoch of a dead LC
// application counts as a violation.
func deadUnitOut(u simUnit) unitOut {
	o := u.opts.WithDefaults()
	total := int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
	measured := total - int(math.Ceil(o.WarmupMs/o.EpochMs))
	co := unitOut{failed: true, downEpochs: total, epochs: measured}
	for _, a := range uniquify(u.apps) {
		if a.LC != nil {
			co.lcApps++
			co.lc = append(co.lc, deadLCSample(a))
		} else if a.BE != nil {
			co.be = append(co.be, deadBESample(a))
		}
	}
	co.violationEpochs = measured * co.lcApps
	return co
}

// deadLCSample is the saturated entropy sample of an LC application whose
// node is dead: latency clamped at 1000x its target (the starvation clamp
// of core.SamplesFromWindows), so it maximally violates.
func deadLCSample(a sim.AppConfig) entropy.LCSample {
	return entropy.LCSample{
		Name: a.LC.Name, IdealMs: a.LC.IdealP95Ms,
		MeasuredMs: a.LC.QoSTargetMs * 1e3, TargetMs: a.LC.QoSTargetMs,
	}
}

// deadBESample is the saturated entropy sample of a BE application whose
// node is dead: a sliver of its solo IPC (the zero-IPC clamp of
// core.SamplesFromWindows), so E_BE saturates instead of erroring.
func deadBESample(a sim.AppConfig) entropy.BESample {
	return entropy.BESample{
		Name: a.BE.Name, SoloIPC: a.BE.SoloIPC, MeasuredIPC: a.BE.SoloIPC * 1e-3,
	}
}
