package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"ahq/internal/cluster"
	"ahq/internal/core"
	"ahq/internal/entropy"
	"ahq/internal/experiments"
	"ahq/internal/faults"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sched/arq"
	"ahq/internal/sched/clite"
	"ahq/internal/sched/parties"
	"ahq/internal/sim"
	"ahq/internal/trace"
	"ahq/internal/workload"
)

// Workload sizes and horizons. Node runs use the paper's horizons; fleet
// runs use the ext-fleet / ext-fleetchaos horizons.
const (
	gridMixes  = 48   // node-grid mixes, each run under three strategies
	fleetNodes = 1000 // fleet-sweep and fleet-chaos fleet size
)

var (
	nodeOpts  = core.Options{EpochMs: 500, WarmupMs: 5_000, DurationMs: 20_000}
	fleetOpts = core.Options{EpochMs: 500, WarmupMs: 1_000, DurationMs: 3_000}
	chaosOpts = core.Options{EpochMs: 500, WarmupMs: 1_000, DurationMs: 5_000}

	paperIDs        = []string{"headline", "fig12", "fig13"}
	gridStrategies  = []string{"parties", "clite", "arq"}
	fleetPlacements = []string{"random", "pack", "balanced", "scored"}
	chaosModes      = []string{"none", "replace"}
)

// unitOut is what one execution of a workload's fixed work produced.
type unitOut struct {
	ops, failed int
	digest      string             // hex SHA-256 of the deterministic output
	problems    []string           // errors and failed output checks
	layers      map[string]float64 // per-layer metrics; traced units only
	stats       map[string]*layerStats
	accuracy    []string // paper-cli: model-accuracy lines
}

func (u *unitOut) fail(format string, args ...any) {
	u.failed++
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
}

// check records an output check that failed without an error from the
// program (an out-of-range statistic).
func (u *unitOut) check(ok bool, format string, args ...any) {
	if !ok {
		u.problems = append(u.problems, fmt.Sprintf(format, args...))
	}
}

// fv renders a statistic for the output digest with ten significant
// digits: every printed figure is covered, while a last-bit change from a
// reassociated floating-point sum is not mistaken for a wrong answer.
func fv(x float64) string { return strconv.FormatFloat(x, 'g', 10, 64) }

// inUnit reports whether x is a valid entropy or ratio.
func inUnit(x float64) bool { return !math.IsNaN(x) && x >= 0 && x <= 1 }

// ---------------------------------------------------------------------------
// Generators: pure functions of the seed. Each fixes the composition of
// its inputs (how many of each load level, application and fault) and
// lets the seed choose how they are combined and the simulations' random
// streams, so that the work a run does, and with it the host time, does
// not swing with the seed.

// mixSpec is one node-grid collocation: the paper's primary mix of Xapian
// at a variable load, Moses and Img-dnn at moderate loads and one BE app.
type mixSpec struct {
	Xapian, Moses, ImgDNN float64
	BE                    string
	Seed                  int64
}

// gridMixSpecs spreads n mixes evenly over Xapian 10–90% and Moses and
// Img-dnn 20–40% (5% steps) and over the three BE apps, then pairs the
// columns by seeded permutations.
func gridMixSpecs(seed int64, n int) []mixSpec {
	rng := rand.New(rand.NewSource(seed))
	bes := []string{"stream", "fluidanimate", "streamcluster"}
	level := func(lo float64, steps, i int) float64 { return lo + 0.05*float64(i*steps/n) }
	moses, img, be := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	out := make([]mixSpec, n)
	for i := range out {
		out[i] = mixSpec{
			Xapian: level(0.10, 17, i),
			Moses:  level(0.20, 5, moses[i]),
			ImgDNN: level(0.20, 5, img[i]),
			BE:     bes[be[i]%len(bes)],
			Seed:   rng.Int63n(1 << 31),
		}
	}
	return out
}

// appSpec is one fleet application: an LC service at a load, or a BE job
// (Load 0).
type appSpec struct {
	Name string
	Load float64
}

// fleetPopulation builds ~2.5 applications per node: 70% LC services
// spread evenly over six Tailbench services at four quantised loads, the
// rest spread evenly over three BE batch jobs, in seeded order.
func fleetPopulation(seed int64, nodes int) []appSpec {
	lc := []string{"xapian", "moses", "img-dnn", "silo", "masstree", "sphinx"}
	be := []string{"stream", "fluidanimate", "streamcluster"}
	loads := []float64{0.2, 0.35, 0.5, 0.7}
	count := nodes * 5 / 2
	nLC := count * 7 / 10
	out := make([]appSpec, count)
	for i := range out {
		if i < nLC {
			k := i % (len(lc) * len(loads))
			out[i] = appSpec{Name: lc[k/len(loads)], Load: loads[k%len(loads)]}
		} else {
			out[i] = appSpec{Name: be[(i-nLC)%len(be)]}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// chaosPlan is one fleet fault plan in the faults.ParseFleet grammar.
type chaosPlan struct {
	Label, Spec string
}

// chaosPlans are three persistent crash waves (1, 5 and 10% of nodes,
// from the fifth epoch) and a mixed crash+degrade+blackout plan, on the
// ext-fleetchaos schedule. The cluster engine draws each event's victims
// from the run seed.
var chaosPlans = []chaosPlan{
	{"crash1", "crash@4+/nodes=1%"},
	{"crash5", "crash@4+/nodes=5%"},
	{"crash10", "crash@4+/nodes=10%"},
	{"mixed", "crash@4x4/nodes=5%,degrade@2+/nodes=10%,blackout@6x3/nodes=10%"},
}

// lcConfig and beConfig build simulator application configs from the
// calibrated catalog.
func lcConfig(name string, load float64) (sim.AppConfig, error) {
	app, err := workload.LCByName(name)
	if err != nil {
		return sim.AppConfig{}, err
	}
	return sim.AppConfig{LC: &app, Load: trace.Constant(load)}, nil
}

func beConfig(name string) (sim.AppConfig, error) {
	app, err := workload.BEByName(name)
	if err != nil {
		return sim.AppConfig{}, err
	}
	return sim.AppConfig{BE: &app}, nil
}

func (a appSpec) config() (sim.AppConfig, error) {
	if a.Load == 0 {
		return beConfig(a.Name)
	}
	return lcConfig(a.Name, a.Load)
}

func (m mixSpec) configs() ([]sim.AppConfig, error) {
	var out []sim.AppConfig
	for _, lc := range []appSpec{{"xapian", m.Xapian}, {"moses", m.Moses}, {"img-dnn", m.ImgDNN}, {m.BE, 0}} {
		c, err := lc.config()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Workloads.

// bench is one workload: prepare turns the seed into the program's inputs
// (outside any timing), and the returned unit runs the fixed work once,
// traced when tr is non-nil.
type bench struct {
	name    string
	prepare func(seed int64, workers int) (func(tr *tracer) *unitOut, error)
}

var benches = []bench{
	{"paper-cli", preparePaperCLI},
	{"node-grid", prepareNodeGrid},
	{"fleet-sweep", prepareFleetSweep},
	{"fleet-chaos", prepareFleetChaos},
}

func newUnit(traced bool) *unitOut {
	u := &unitOut{}
	if traced {
		u.layers = make(map[string]float64)
	}
	return u
}

// finish seals the unit's digest and, for a traced unit, derives the
// per-layer metrics from its spans. Every goroutine that recorded spans
// has returned by now.
func finish(u *unitOut, h hash.Hash, tr *tracer) *unitOut {
	u.digest = hex.EncodeToString(h.Sum(nil))
	if tr == nil {
		return u
	}
	u.stats = aggregate(tr.spans)
	l := u.layers
	l["trace.spans"] = float64(len(tr.spans))
	if st := u.stats["sim.run_window"]; st != nil {
		l["sim.run_window.calls"] = float64(st.calls)
		l["sim.run_window_ms"] = st.totalMs
		l["sim.run_window_us.p50"] = medianOrZero(st.durUs)
		l["sim.run_window_us.p99"] = tailOrZero(st.durUs)
		l["sim.host_us_per_sim_s"] = st.totalMs * 1e3 / (float64(st.calls) * nodeOpts.EpochMs / 1e3)
	}
	if st := u.stats["sim.set_allocation"]; st != nil {
		l["sim.set_allocation.calls"] = float64(st.calls)
		l["sim.set_allocation_ms"] = st.totalMs
	}
	for _, name := range gridStrategies {
		st := u.stats["sched."+name+".decide"]
		if st == nil {
			continue
		}
		l["sched."+name+".decide.calls"] = float64(st.calls)
		l["sched."+name+".decide_ms"] = st.totalMs
		l["sched."+name+".decide_us.p99"] = tailOrZero(st.durUs)
		l["sched."+name+".adjust_ratio"] /= float64(st.calls)
	}
	if st := u.stats["core.run"]; st != nil {
		l["core.run.calls"] = float64(st.calls)
		l["core.run_ms"] = st.totalMs
		l["core.run.self_ms"] = st.selfMs
	}
	if st := u.stats["entropy.compute"]; st != nil {
		l["entropy.compute.calls"] = float64(st.calls)
		l["entropy.compute_us"] = st.totalMs * 1e3
	}
	if st := u.stats["cluster.run"]; st != nil {
		l["cluster.run.self_ms"] = st.selfMs
	}
	// Decide calls made inside a fleet run, through its strategy factory.
	fleetRuns := make(map[int64]bool)
	for _, s := range tr.spans {
		if s.name == "cluster.run" {
			fleetRuns[s.id] = true
		}
	}
	for _, s := range tr.spans {
		if fleetRuns[s.parent] && strings.HasSuffix(s.name, ".decide") {
			l["cluster.decide.calls"]++
			l["cluster.decide_ms"] += float64(s.end-s.start) / 1e6
		}
	}
	if n := l["cluster.node_cache.hits"] + l["cluster.node_cache.misses"]; n > 0 {
		l["cluster.node_cache.hit_ratio"] = l["cluster.node_cache.hits"] / n
	}
	return u
}

// preparePaperCLI runs the paper artifacts a `ahqbench -run` user waits
// for, in process and at full horizons, and digests their rendered text.
func preparePaperCLI(seed int64, workers int) (func(*tracer) *unitOut, error) {
	for _, id := range paperIDs {
		if _, ok := experiments.Lookup(id); !ok {
			return nil, fmt.Errorf("experiment %q not registered", id)
		}
	}
	return func(tr *tracer) *unitOut {
		u := newUnit(tr != nil)
		h := sha256.New()
		for _, id := range paperIDs {
			u.ops++
			d, _ := experiments.Lookup(id)
			var res *experiments.Result
			var err error
			run := func(int64) { res, err = d.Run(experiments.RunConfig{Seed: seed, Parallel: workers}) }
			if tr != nil {
				u.layers["experiments."+id+"_s"] = tr.timed("experiments."+id, 0, tr.newID(), run) / 1e3
			} else {
				run(0)
			}
			if err != nil {
				u.fail("%s: %v", id, err)
				continue
			}
			var buf bytes.Buffer
			res.Fprint(&buf)
			h.Write(buf.Bytes())
			if id == "headline" {
				u.accuracy = headlineAccuracy(res, u)
			}
		}
		return finish(u, h, tr)
	}, nil
}

// paperHeadline are the abstract's per-strategy yield and mean E_S.
var paperHeadline = map[string][2]float64{
	"arq":     {0.85, 0.14},
	"parties": {0.60, 0.22},
	"clite":   {0.65, 0.21},
}

// headlineAccuracy reads the headline table's yield and mean E_S per
// strategy and sets them beside the paper's values. It also checks that
// the table has a row per strategy with in-range values.
func headlineAccuracy(res *experiments.Result, u *unitOut) []string {
	var lines []string
	seen := 0
	for _, t := range res.Tables {
		if len(t.Columns) < 3 || t.Columns[0] != "strategy" || t.Columns[1] != "yield" {
			continue
		}
		for _, row := range t.Rows {
			ref, ok := paperHeadline[row[0]]
			if !ok || len(row) < 3 {
				continue
			}
			seen++
			y, err1 := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
			es, err2 := strconv.ParseFloat(row[2], 64)
			u.check(err1 == nil && err2 == nil && inUnit(y/100) && inUnit(es), "headline row %v unreadable or out of range", row)
			y /= 100
			lines = append(lines, fmt.Sprintf("%s: yield %.2f (paper %.2f, abs err %.2f), mean E_S %.3f (paper %.2f, abs err %.3f)",
				row[0], y, ref[0], math.Abs(y-ref[0]), es, ref[1], math.Abs(es-ref[1])))
		}
	}
	u.check(seen == len(paperHeadline), "headline table has %d of %d strategy rows", seen, len(paperHeadline))
	return lines
}

func newStrategy(name string, seed int64) (sched.Strategy, error) {
	switch name {
	case "parties":
		return parties.Default(), nil
	case "clite":
		cfg := clite.DefaultConfig()
		cfg.Seed = seed
		return clite.New(cfg), nil
	case "arq":
		return arq.Default(), nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// nodeRun is the outcome of one controller run on one simulated node.
type nodeRun struct {
	res          *core.Result
	err          error
	newMs        float64
	epochMs      []float64
	hits, solves uint64
}

// runNode simulates one mix under one strategy: the ahqd per-node path,
// with no pool and no shared cache.
func runNode(m mixSpec, apps []sim.AppConfig, strategy string, tr *tracer) nodeRun {
	var out nodeRun
	var eng *sim.Engine
	var run int64
	build := func(int64) {
		eng, out.err = sim.New(sim.Config{Spec: machine.DefaultSpec(), Seed: m.Seed, Apps: apps})
	}
	if tr != nil {
		run = tr.newID()
		out.newMs = tr.timed("sim.new", 0, run, build)
	} else {
		build(0)
	}
	if out.err != nil {
		return out
	}
	s, err := newStrategy(strategy, m.Seed)
	if err != nil {
		out.err = err
		return out
	}
	if tr == nil {
		out.res, out.err = core.Run(eng, s, nodeOpts)
		return out
	}
	te := newTracedEngine(eng, tr, run)
	ts := newTracedStrategy(s, tr, 0, run)
	tr.timed("core.run", 0, run, func(id int64) {
		te.parent, ts.parent = id, id
		out.res, out.err = core.Run(te, ts, nodeOpts)
	})
	out.epochMs = te.epochMs
	out.hits, out.solves = solveStats(eng)
	return out
}

// prepareNodeGrid runs a seeded grid of paper collocations, each under
// PARTIES, CLITE and ARQ, on `workers` runner goroutines.
func prepareNodeGrid(seed int64, workers int) (func(*tracer) *unitOut, error) {
	mixes := gridMixSpecs(seed, gridMixes)
	apps := make([][]sim.AppConfig, len(mixes))
	for i, m := range mixes {
		var err error
		if apps[i], err = m.configs(); err != nil {
			return nil, err
		}
	}
	return func(tr *tracer) *unitOut {
		u := newUnit(tr != nil)
		type job struct{ mix, strat int }
		jobs := make(chan job)
		runs := make([]nodeRun, len(mixes)*len(gridStrategies))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					runs[j.mix*len(gridStrategies)+j.strat] = runNode(mixes[j.mix], apps[j.mix], gridStrategies[j.strat], tr)
				}
			}()
		}
		// Highest Xapian load first, so the longest runs do not straggle
		// at the end of the unit.
		for i := len(mixes) - 1; i >= 0; i-- {
			for s := range gridStrategies {
				jobs <- job{i, s}
			}
		}
		close(jobs)
		wg.Wait()

		h := sha256.New()
		lc := make(map[string][]entropy.LCSample)
		be := make(map[string][]entropy.BESample)
		var epochs []float64
		var hits, solves uint64
		for i, r := range runs {
			name := gridStrategies[i%len(gridStrategies)]
			u.ops++
			if r.err != nil {
				u.fail("mix %d %s: %v", i/len(gridStrategies), name, r.err)
				continue
			}
			res := r.res
			fmt.Fprintf(h, "%d %s es=%s elc=%s ebe=%s run_es=%s yield=%s viol=%d epochs=%d adj=%d inc=%d\n",
				i/len(gridStrategies), name, fv(res.MeanES), fv(res.MeanELC), fv(res.MeanEBE), fv(res.RunES),
				fv(res.Yield), res.TotalViolationEpochs, res.Epochs, res.Adjustments, len(res.Incidents))
			u.check(inUnit(res.MeanES) && inUnit(res.RunES) && inUnit(res.Yield), "mix %d %s: E_S %v / yield %v out of range", i/len(gridStrategies), name, res.MeanES, res.Yield)
			for _, a := range res.Apps {
				if a.Spec.Class == workload.LC {
					lc[name] = append(lc[name], a.LCSample)
				} else {
					be[name] = append(be[name], a.BESample)
				}
			}
			if tr != nil {
				u.layers["sim.new_ms"] += r.newMs
				u.layers["core.epochs"] += float64(res.Epochs)
				u.layers["core.incidents"] += float64(len(res.Incidents))
				u.layers["sched."+name+".adjust_ratio"] += float64(res.Adjustments)
				epochs = append(epochs, r.epochMs...)
				hits += r.hits
				solves += r.solves
			}
		}
		// Grid aggregation: one pooled E_S and yield per strategy.
		for _, name := range gridStrategies {
			var elc, ebe, es, y float64
			var err error
			agg := func(int64) {
				elc, ebe, es, err = entropy.System{RI: entropy.DefaultRI}.Compute(lc[name], be[name])
				if err == nil {
					y, err = entropy.Yield(lc[name])
				}
			}
			if tr != nil {
				tr.timed("entropy.compute", 0, tr.newID(), agg)
			} else {
				agg(0)
			}
			if err != nil {
				u.problems = append(u.problems, fmt.Sprintf("grid aggregate %s: %v", name, err))
				continue
			}
			fmt.Fprintf(h, "grid %s elc=%s ebe=%s es=%s yield=%s\n", name, fv(elc), fv(ebe), fv(es), fv(y))
			u.check(inUnit(es) && inUnit(y), "grid %s: E_S %v / yield %v out of range", name, es, y)
		}
		if tr != nil {
			u.layers["epoch_ms.p50"] = medianOrZero(epochs)
			u.layers["epoch_ms.p99"] = tailOrZero(epochs)
			u.layers["epoch_ms.n"] = float64(len(epochs))
			u.layers["sim.memo_hits"] = float64(hits)
			u.layers["sim.solves"] = float64(solves)
			if hits+solves > 0 {
				u.layers["sim.memo_hit_ratio"] = float64(hits) / float64(hits+solves)
			}
		}
		return finish(u, h, tr)
	}, nil
}

// fleetApps materialises a generated population.
func fleetApps(pop []appSpec) ([]sim.AppConfig, error) {
	out := make([]sim.AppConfig, len(pop))
	for i, a := range pop {
		var err error
		if out[i], err = a.config(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runFleet runs one fleet under per-node ARQ (the default configuration
// the StrategyDigest names). When traced, the run is a cluster.run span
// whose duration goes to metric, and the Decide calls made through the
// strategy factory are its children.
func runFleet(u *unitOut, tr *tracer, metric string, cfg cluster.Config, opts core.Options) (*cluster.Result, error) {
	cfg.StrategyDigest = "arq:default"
	if tr == nil {
		cfg.NewStrategy = func(int) sched.Strategy { return arq.Default() }
		return cluster.Run(cfg, opts)
	}
	var res *cluster.Result
	var err error
	run := tr.newID()
	u.layers[metric] = tr.timed("cluster.run", 0, run, func(id int64) {
		cfg.NewStrategy = func(int) sched.Strategy { return newTracedStrategy(arq.Default(), tr, id, run) }
		res, err = cluster.Run(cfg, opts)
	})
	if err == nil {
		addFleetStats(u, res)
	}
	return res, err
}

// digestFleet writes what a fleet run reports: the global statistics, the
// supervisor's actions and every node summary.
func digestFleet(h hash.Hash, label string, r *cluster.Result, u *unitOut) {
	fmt.Fprintf(h, "%s elc=%s ebe=%s es=%s yield=%s/%t viol=%s tve=%d evict=%d repl=%d aband=%d rec=%s failed=%d down=%d\n",
		label, fv(r.GlobalELC), fv(r.GlobalEBE), fv(r.GlobalES), fv(r.GlobalYield), r.YieldDefined, fv(r.ViolationRate()),
		r.TotalViolationEpochs, r.Evictions, r.Replacements, r.Abandoned, fv(r.MeanRecoveryEpochs),
		r.Stats.FailedNodes, r.Stats.DownEpochs)
	for _, s := range r.Summaries {
		fmt.Fprintf(h, "%d %s %s %d %d %t %d %d\n", s.Node, fv(s.ES), fv(s.Yield), s.ViolationEpochs, s.Incidents, s.Failed, s.DownEpochs, s.Evictions)
	}
	u.check(inUnit(r.GlobalES) && inUnit(r.GlobalYield) && len(r.Summaries) == fleetNodes,
		"%s: E_S %v / yield %v / %d summaries out of range", label, r.GlobalES, r.GlobalYield, len(r.Summaries))
}

// addFleetStats adds a fleet run's counters to the unit's layer metrics.
func addFleetStats(u *unitOut, r *cluster.Result) {
	u.layers["cluster.nodes"] += float64(r.Stats.NodesRun)
	u.layers["cluster.nodes_simulated"] += float64(r.Stats.NodesSimulated)
	u.layers["cluster.memo_hits"] += float64(r.Stats.MemoHits)
	u.layers["cluster.solves"] += float64(r.Stats.Solves)
}

func addCacheStats(u *unitOut, st cluster.NodeCacheStats) {
	u.layers["cluster.node_cache.hits"] += float64(st.Hits)
	u.layers["cluster.node_cache.misses"] += float64(st.Misses)
	u.layers["cluster.node_cache.full"] += float64(st.Full)
}

// placeFleet places a population and canonicalises the intra-node order,
// timing both steps when traced.
func placeFleet(u *unitOut, tr *tracer, label string, place func() ([][]sim.AppConfig, error)) ([][]sim.AppConfig, error) {
	var placement [][]sim.AppConfig
	var err error
	step := func(span, metric string, fn func(int64)) {
		if tr != nil {
			u.layers[metric] += tr.timed(span, 0, tr.newID(), fn)
		} else {
			fn(0)
		}
	}
	step("cluster.place."+label, "cluster.place_ms."+label, func(int64) { placement, err = place() })
	if err != nil {
		return nil, err
	}
	step("cluster.canonicalize", "cluster.canonicalize_ms", func(int64) { placement = cluster.CanonicalizePlacement(placement) })
	return placement, nil
}

// prepareFleetSweep places one 1000-node population four ways and runs
// each placement under per-node ARQ, one NodeCache serving the sweep.
func prepareFleetSweep(seed int64, workers int) (func(*tracer) *unitOut, error) {
	apps, err := fleetApps(fleetPopulation(seed, fleetNodes))
	if err != nil {
		return nil, err
	}
	spec := machine.DefaultSpec()
	place := map[string]func() ([][]sim.AppConfig, error){
		"random":   func() ([][]sim.AppConfig, error) { return cluster.Random(apps, fleetNodes, seed+1) },
		"pack":     func() ([][]sim.AppConfig, error) { return cluster.Pack(apps, fleetNodes, 8) },
		"balanced": func() ([][]sim.AppConfig, error) { return cluster.Balanced(apps, fleetNodes) },
		"scored":   func() ([][]sim.AppConfig, error) { return cluster.Scored(apps, fleetNodes, spec) },
	}
	return func(tr *tracer) *unitOut {
		u := newUnit(tr != nil)
		h := sha256.New()
		cache := cluster.NewNodeCache()
		for _, p := range fleetPlacements {
			u.ops++
			placement, err := placeFleet(u, tr, p, place[p])
			if err != nil {
				u.fail("place %s: %v", p, err)
				continue
			}
			seeds := make([]int64, len(placement))
			for i := range placement {
				seeds[i] = cluster.TemplateSeed(seed, placement[i])
			}
			res, err := runFleet(u, tr, "cluster.run_ms."+p, cluster.Config{
				Spec:      spec,
				Seed:      seed,
				Placement: placement,
				Parallel:  workers,
				NodeSeed:  func(i int) int64 { return seeds[i] },
				NodeCache: cache,
			}, fleetOpts)
			if err != nil {
				u.fail("run %s: %v", p, err)
				continue
			}
			digestFleet(h, p, res, u)
		}
		if tr != nil {
			addCacheStats(u, cache.Stats())
		}
		return finish(u, h, tr)
	}, nil
}

// prepareFleetChaos runs seeded fault plans on a scored 1000-node fleet,
// each with and without re-placement of evicted applications, with a
// fresh NodeCache per run.
func prepareFleetChaos(seed int64, workers int) (func(*tracer) *unitOut, error) {
	apps, err := fleetApps(fleetPopulation(seed, fleetNodes))
	if err != nil {
		return nil, err
	}
	spec := machine.DefaultSpec()
	return func(tr *tracer) *unitOut {
		u := newUnit(tr != nil)
		h := sha256.New()
		placement, err := placeFleet(u, tr, "scored", func() ([][]sim.AppConfig, error) { return cluster.Scored(apps, fleetNodes, spec) })
		if err != nil {
			u.ops++
			u.fail("scored placement: %v", err)
			return finish(u, h, tr)
		}
		for _, p := range chaosPlans {
			for _, mode := range chaosModes {
				u.ops++
				var plan *faults.FleetPlan
				parse := func(int64) { plan, err = faults.ParseFleet(p.Spec) }
				if tr != nil {
					u.layers["faults.parse_us"] += tr.timed("faults.parse_fleet", 0, tr.newID(), parse) * 1e3
				} else {
					parse(0)
				}
				if err != nil {
					u.fail("parse %q: %v", p.Spec, err)
					continue
				}
				cache := cluster.NewNodeCache()
				label := p.Label + "." + mode
				res, err := runFleet(u, tr, "cluster.chaos.run_ms."+label, cluster.Config{
					Spec:           spec,
					Seed:           seed,
					Placement:      placement,
					Parallel:       workers,
					NodeCache:      cache,
					FleetPlan:      plan,
					ReplaceEvicted: mode == "replace",
				}, chaosOpts)
				if err != nil {
					u.fail("run %s: %v", label, err)
					continue
				}
				digestFleet(h, label, res, u)
				if tr != nil {
					addCacheStats(u, cache.Stats())
					u.layers["cluster.chaos.failed_nodes"] += float64(res.Stats.FailedNodes)
					u.layers["cluster.chaos.down_epochs"] += float64(res.Stats.DownEpochs)
					u.layers["cluster.chaos.evictions"] += float64(res.Evictions)
					u.layers["cluster.chaos.replacements"] += float64(res.Replacements)
					u.layers["cluster.chaos.abandoned"] += float64(res.Abandoned)
				}
			}
		}
		return finish(u, h, tr)
	}, nil
}
