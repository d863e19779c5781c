package cluster

// The chaos engine is the fleet run under a faults.FleetPlan: node
// crashes, capacity degradations and telemetry blackouts at fleet scope,
// with optional failure-aware re-placement. It simulates the fleet as a
// sequence of *phases* — maximal epoch ranges over which the fleet's
// configuration is constant (supervisor.go cuts one at every crash,
// restart, degrade flip and re-placement) — and each (phase, node) becomes
// one independent simulation unit: the node's applications at that time,
// its (possibly degraded) capacity, and its blackout coverage lowered to a
// node-local telemetry-drop plan. A phase overlapping the warm-up window
// carries the overlap as its own warm-up; later phases run unwarmed.
//
// The phased model deliberately drops cross-phase node state (queue
// backlogs, strategy learning do not survive a boundary): a phase is a
// fresh steady-state estimate of the configuration it covers, which is
// exactly the quantity fleet-level E_S aggregation needs, and what keeps
// every unit a pure function of its content — so units dedup across
// phases, nodes, and whole sweeps through the same classing and NodeCache
// machinery as the legacy path, and output is byte-identical at every
// -parallel level.
//
// Aggregation pools run-level samples over every unit, weighted by the
// unit's measured epochs (entropy.WeightedSystem), and accounts dead
// windows explicitly: an application on a crashed node (no-replace), or
// evicted and not yet — or never — re-placed, contributes a saturated
// sample weighted by the phase's measured epochs, and each such LC
// app-epoch counts as a violation. The sample set never silently shrinks
// because a node died.

import (
	"fmt"
	"math"

	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/faults"
	"ahq/internal/sim"
)

// chaosClass is one unit equivalence class of a chaos run: the unit, its
// cache/dedup key ("" = singleton, never cached), the (phase, node) pairs
// it covers, and the phase's measured epochs (equal across members — the
// key includes the options, which pin the phase shape).
type chaosClass struct {
	key      string
	unit     simUnit
	members  []unitRef
	measured int
}

// unitRef addresses one (phase, node) slot of the schedule.
type unitRef struct {
	phase, node int
}

// runChaos drives the fleet under the configured FleetPlan. cfg has been
// validated by Run (placement non-empty, strategy present, no NodeSeed, no
// KeepResults, NodeCache implies StrategyDigest).
func runChaos(cfg Config, opts core.Options, ri float64) (*Result, error) {
	o := opts.WithDefaults()
	totalEpochs := int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
	warmEpochs := int(math.Ceil(o.WarmupMs / o.EpochMs))
	n := len(cfg.Placement)

	// Resolve draws victims for unresolved events and validates resolved
	// ones against the fleet size; a pure function of (plan, Seed, n).
	plan, err := cfg.FleetPlan.Resolve(cfg.Seed, n)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sched := supervise(plan, cfg.Placement, cfg.Spec, cfg.ReplaceEvicted, totalEpochs)

	// Build the unit list in (phase, node) order and group it into
	// classes. Down and empty nodes simulate nothing; phases entirely
	// inside warm-up measure nothing and are skipped whole.
	classes := make([]chaosClass, 0, n)
	index := make(map[string]int)
	phaseMeasured := make([]int, len(sched.phases))
	for pi := range sched.phases {
		ph := &sched.phases[pi]
		length := ph.end - ph.start
		warmIn := warmEpochs - ph.start
		if warmIn < 0 {
			warmIn = 0
		} else if warmIn > length {
			warmIn = length
		}
		measured := length - warmIn
		phaseMeasured[pi] = measured
		if measured == 0 {
			continue
		}
		phOpts := core.Options{
			EpochMs:    o.EpochMs,
			DurationMs: float64(measured) * o.EpochMs,
			RI:         o.RI,
		}
		if warmIn > 0 {
			phOpts.WarmupMs = float64(warmIn) * o.EpochMs
		} else {
			phOpts.WarmupMs = -1 // negative = no warm-up, 0 would mean the default
		}
		for nd := 0; nd < n; nd++ {
			if ph.down[nd] || len(ph.assign[nd]) == 0 {
				continue
			}
			// Canonical intra-node order: equal phase contents become
			// equal simulations, exactly as the sweeps do for placements.
			apps := CanonicalOrder(ph.assign[nd])
			spec := cfg.Spec
			if ph.degraded[nd] {
				spec = faults.DegradedSpec(spec)
			}
			u := simUnit{
				node: nd, apps: apps, spec: spec,
				seed:     TemplateSeed(cfg.Seed, apps),
				opts:     phOpts,
				blackout: plan.BlackoutPlan(nd, ph.start, ph.end),
			}
			key := ""
			if cfg.DedupIdenticalNodes || cfg.NodeCache != nil {
				key = chaosUnitKey(&cfg, u, ri)
			}
			if key != "" && cfg.DedupIdenticalNodes {
				if ci, dup := index[key]; dup {
					classes[ci].members = append(classes[ci].members, unitRef{pi, nd})
					continue
				}
				index[key] = len(classes)
			}
			cacheKey := key
			if cfg.NodeCache == nil {
				cacheKey = ""
			}
			classes = append(classes, chaosClass{
				key: cacheKey, unit: u,
				members: []unitRef{{pi, nd}}, measured: measured,
			})
		}
	}

	units := make([]shardUnit, len(classes))
	for ci := range classes {
		units[ci] = shardUnit{key: classes[ci].key, unit: classes[ci].unit}
	}
	outs, stats, err := runUnits(&cfg, units)
	if err != nil {
		return nil, err
	}

	// Merge in class order, expanding to members in member order — fixed
	// before sharding, so identical at every parallelism level.
	res := &Result{Summaries: make([]NodeSummary, n)}
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
	for ci := range classes {
		cl := &classes[ci]
		co := &outs[ci]
		w := float64(cl.measured)
		for _, m := range cl.members {
			s := &res.Summaries[m.node]
			s.Epochs += co.sum.Epochs
			s.ViolationEpochs += co.sum.ViolationEpochs
			s.Incidents += co.sum.Incidents
			if co.sum.Failed {
				s.Failed = true
			}
			res.MeasuredEpochs += co.sum.Epochs
			res.TotalViolationEpochs += co.sum.ViolationEpochs
			res.LCAppEpochs += co.sum.LCApps * co.sum.Epochs
			for _, smp := range co.lc {
				ws := entropy.Weighted[entropy.LCSample]{Sample: smp, Weight: w}
				allLC = append(allLC, ws)
				nodeLC[m.node] = append(nodeLC[m.node], ws)
			}
			for _, smp := range co.be {
				ws := entropy.Weighted[entropy.BESample]{Sample: smp, Weight: w}
				allBE = append(allBE, ws)
				nodeBE[m.node] = append(nodeBE[m.node], ws)
			}
		}
	}
	// Dead windows: applications running nowhere during a measured phase
	// contribute saturated samples weighted by the phase's measured
	// epochs, attributed to their (home) node; every dead LC app-epoch is
	// a violation.
	for pi := range sched.phases {
		measured := phaseMeasured[pi]
		if measured == 0 {
			continue
		}
		w := float64(measured)
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

	// Per-node entropies and epoch-weighted yield over each node's own
	// weighted samples (dead contributions included); a node with no
	// samples at all (everything moved away, nothing placed) reports NaN.
	for i := 0; i < n; i++ {
		s := &res.Summaries[i]
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
	if sat, tot := weightedSatisfied(allLC); tot > 0 {
		res.GlobalYield, res.YieldDefined = sat/tot, true
	}

	res.Evictions = sched.evictions
	res.Replacements = sched.replacements
	res.Abandoned = sched.abandoned
	if sched.replacements > 0 {
		res.MeanRecoveryEpochs = float64(sched.recoverySum) / float64(sched.replacements)
	}
	res.Stats = stats
	res.Stats.NodesRun = n
	addIncidentCounters(res)
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

// chaosUnitKey serialises every input a chaos unit's simulation reads —
// capacity, per-phase controller options (post-default), aggregation RI,
// engine tunables, strategy digest, blackout plan, seed, and the canonical
// application template — into the unit's content address. The "chaos|"
// namespace keeps chaos keys disjoint from legacy node keys in a shared
// NodeCache. Returns "" when the template is not key-serialisable; such
// units are never grouped or cached.
func chaosUnitKey(cfg *Config, u simUnit, ri float64) string {
	tk, ok := templateKey(u.apps)
	if !ok {
		return ""
	}
	o := u.opts.WithDefaults()
	b := make([]byte, 0, 256+len(tk))
	b = append(b, "chaos|"...)
	b = sim.AppendKeyInt(b, u.spec.Cores)
	b = sim.AppendKeyInt(b, u.spec.LLCWays)
	b = sim.AppendKeyInt(b, u.spec.MemBWUnits)
	b = sim.AppendKeyFloat(b, u.spec.MemBWGBps)
	b = sim.AppendKeyFloat(b, o.EpochMs)
	b = sim.AppendKeyFloat(b, o.WarmupMs)
	b = sim.AppendKeyFloat(b, o.DurationMs)
	b = sim.AppendKeyFloat(b, o.RI)
	b = sim.AppendKeyFloat(b, ri)
	b = sim.AppendTunablesKey(b, sim.DefaultTunables())
	b = sim.AppendKeyString(b, cfg.StrategyDigest)
	b = sim.AppendKeyString(b, u.blackout.String())
	b = sim.AppendKeyInt64(b, u.seed)
	b = append(b, '|')
	b = append(b, tk...)
	return string(b)
}
