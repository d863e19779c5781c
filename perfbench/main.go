// Command perfbench is the repository's benchmark. One invocation runs one
// seeded workload for a fixed time and prints, as the last line of
// standard output, one JSON object with the correctness verdict, the
// number of operations attempted and failed, and the metrics:
//
//	perfbench --workload node-grid --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host time, memory);
// with --trace 1 the same drivers run with layer wrappers on and the
// metrics are per-layer counts and times. README.md describes the
// workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ahq/internal/workload"
)

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (checked by TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

var perLayer = func() []metricDef {
	d := []metricDef{
		{"workload.calibrate_ms", "ms"},
		{"workload.calibrate_ms.xapian", "ms"},
		{"workload.calibrate_ms.moses", "ms"},
		{"workload.calibrate_ms.masstree", "ms"},
		{"experiments.headline_s", "s"},
		{"experiments.fig12_s", "s"},
		{"experiments.fig13_s", "s"},
		{"sim.new_ms", "ms"},
		{"sim.run_window.calls", "count"},
		{"sim.run_window_ms", "ms"},
		{"sim.run_window_us.p50", "us"},
		{"sim.run_window_us.p99", "us"},
		{"sim.host_us_per_sim_s", "us/s"},
		{"sim.memo_hits", "count"},
		{"sim.solves", "count"},
		{"sim.memo_hit_ratio", "ratio"},
		{"sim.set_allocation.calls", "count"},
		{"sim.set_allocation_ms", "ms"},
	}
	for _, s := range gridStrategies {
		d = append(d,
			metricDef{"sched." + s + ".decide.calls", "count"},
			metricDef{"sched." + s + ".decide_ms", "ms"},
			metricDef{"sched." + s + ".decide_us.p99", "us"},
			metricDef{"sched." + s + ".adjust_ratio", "ratio"})
	}
	d = append(d,
		metricDef{"core.run.calls", "count"},
		metricDef{"core.run_ms", "ms"},
		metricDef{"core.run.self_ms", "ms"},
		metricDef{"core.epochs", "count"},
		metricDef{"core.incidents", "count"},
		metricDef{"epoch_ms.p50", "ms"},
		metricDef{"epoch_ms.p99", "ms"},
		metricDef{"epoch_ms.n", "count"},
		metricDef{"entropy.compute.calls", "count"},
		metricDef{"entropy.compute_us", "us"})
	for _, p := range fleetPlacements {
		d = append(d, metricDef{"cluster.place_ms." + p, "ms"})
	}
	d = append(d, metricDef{"cluster.canonicalize_ms", "ms"})
	for _, p := range fleetPlacements {
		d = append(d, metricDef{"cluster.run_ms." + p, "ms"})
	}
	d = append(d,
		metricDef{"cluster.run.self_ms", "ms"},
		metricDef{"cluster.nodes", "count"},
		metricDef{"cluster.nodes_simulated", "count"},
		metricDef{"cluster.memo_hits", "count"},
		metricDef{"cluster.solves", "count"},
		metricDef{"cluster.decide.calls", "count"},
		metricDef{"cluster.decide_ms", "ms"},
		metricDef{"cluster.node_cache.hits", "count"},
		metricDef{"cluster.node_cache.misses", "count"},
		metricDef{"cluster.node_cache.full", "count"},
		metricDef{"cluster.node_cache.hit_ratio", "ratio"})
	for _, p := range chaosPlans {
		for _, m := range chaosModes {
			d = append(d, metricDef{"cluster.chaos.run_ms." + p.Label + "." + m, "ms"})
		}
	}
	for _, c := range []string{"failed_nodes", "down_epochs", "evictions", "replacements", "abandoned"} {
		d = append(d, metricDef{"cluster.chaos." + c, "count"})
	}
	return append(d,
		metricDef{"faults.parse_us", "us"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead_s", "s"})
}()

// setupProbes is how many fresh processes calibrate the LC catalog per
// run (this one included); setup_s is their median.
const setupProbes = 5

//go:embed pins.json
var pinsJSON []byte

// pinFile holds the output digest of each workload at the default and
// the held-out seed, and the model-accuracy record (not read here).
type pinFile struct {
	Digests map[string]map[string]string `json:"digests"`
}

// setupSample is one fresh process's LC catalog calibration.
type setupSample struct {
	TotalS float64            `json:"total_s"`
	AppsMs map[string]float64 `json:"apps_ms"`
}

// calibrate forces the lazy calibration of every LC application, so it
// lands in set-up rather than in the first timed unit.
func calibrate() (setupSample, error) {
	s := setupSample{AppsMs: make(map[string]float64)}
	start := time.Now()
	for _, name := range workload.LCNames() {
		t := time.Now()
		if _, err := workload.LCByName(name); err != nil {
			return s, fmt.Errorf("calibrate %s: %w", name, err)
		}
		s.AppsMs[name] = float64(time.Since(t)) / 1e6
	}
	s.TotalS = time.Since(start).Seconds()
	return s, nil
}

// probeSetup runs one calibration in a fresh copy of this program.
func probeSetup(exe string) (setupSample, error) {
	var s setupSample
	cmd := exec.Command(exe, "--setup-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return s, fmt.Errorf("setup probe: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &s); err != nil {
		return s, fmt.Errorf("setup probe output %q: %w", out, err)
	}
	return s, nil
}

// resetPeakRSS returns freed heap memory to the OS and restarts the
// kernel's resident-set high-water mark at the current RSS, so that the
// next peakRSSMB reads the peak of one unit alone, as a fresh process
// running that work would see it. It runs outside the timed region.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: paper-cli, node-grid, fleet-sweep or fleet-chaos")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "how long to repeat the workload's fixed work")
	traceOn := flag.Int("trace", 0, "1 runs the layer wrappers and reports per-layer metrics")
	probe := flag.Bool("setup-probe", false, "calibrate the LC catalog, print the timing as JSON and exit")
	flag.Parse()

	if *probe {
		s, err := calibrate()
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(s)
	}

	var b *bench
	for i := range benches {
		if benches[i].name == *name {
			b = &benches[i]
		}
	}
	if b == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	traced := *traceOn == 1
	var pins pinFile
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	pin := pins.Digests[b.name][strconv.FormatInt(*seed, 10)]

	// Set-up: calibrate here first (this process is fresh), then in
	// further fresh processes; setup_s is the median.
	first, err := calibrate()
	if err != nil {
		return err
	}
	setups := []setupSample{first}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for len(setups) < setupProbes {
		s, err := probeSetup(exe)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}

	workers := runtime.NumCPU()
	unit, err := b.prepare(*seed, workers)
	if err != nil {
		return err
	}

	// Repeat the fixed work until the time is up. A traced run alternates
	// untraced and traced units, so that the tracing overhead is measured
	// in the same process.
	minUnits := 1
	if traced {
		minUnits = 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var walls, tracedWalls, allocs, rss []float64
	layerSamples := make(map[string][]float64)
	var last *unitOut
	rep := report{Metrics: make(map[string]metricValue)}
	var problems []string
	digest := ""
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < minUnits; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		u := unit(tr)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}

		rep.Attempted += u.ops
		failed := u.failed
		problems = append(problems, u.problems...)
		switch {
		case digest == "":
			digest = u.digest
		case u.digest != digest:
			failed = u.ops
			problems = append(problems, fmt.Sprintf("unit %d (traced=%t) digest %s differs from the first unit's %s", i, tr != nil, u.digest, digest))
		}
		if pin != "" && u.digest != pin {
			failed = u.ops
			problems = append(problems, fmt.Sprintf("unit %d digest %s does not match the pin %s for seed %d", i, u.digest, pin, *seed))
		}
		rep.Failed += failed
		if i == 0 {
			for _, line := range u.accuracy {
				fmt.Fprintln(os.Stderr, "model accuracy (unvalidated model):", line)
			}
		}
		fmt.Fprintf(os.Stderr, "unit %d traced=%t wall=%.3fs alloc=%.1fMB peak_rss=%.1fMB ops=%d failed=%d\n",
			i, tr != nil, wall, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), peak, u.ops, failed)
		if tr == nil {
			walls = append(walls, wall)
			rss = append(rss, peak)
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			continue
		}
		tracedWalls = append(tracedWalls, wall)
		for k, v := range u.layers {
			layerSamples[k] = append(layerSamples[k], v)
		}
		last = u
	}
	fmt.Fprintf(os.Stderr, "digest %s seed %d: %s\n", b.name, *seed, digest)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	rep.Correct = len(problems) == 0 && rep.Failed == 0

	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.TotalS
	}
	if !traced {
		put := func(name, unit string, v float64) { rep.Metrics[name] = metricValue{v, unit} }
		put("setup_s", "s", medianOrZero(setupS))
		put("wall_s", "s", medianOrZero(walls))
		put("peak_rss_mb", "MB", medianOrZero(rss))
		put("alloc_mb", "MB", medianOrZero(allocs))
	} else {
		calib := func(app string) float64 {
			v := make([]float64, len(setups))
			for i, s := range setups {
				v[i] = s.AppsMs[app]
			}
			return medianOrZero(v)
		}
		layerSamples["workload.calibrate_ms"] = []float64{medianOrZero(setupS) * 1e3}
		for _, app := range []string{"xapian", "moses", "masstree"} {
			layerSamples["workload.calibrate_ms."+app] = []float64{calib(app)}
		}
		overhead := medianOrZero(tracedWalls) - medianOrZero(walls)
		layerSamples["trace.overhead_s"] = []float64{overhead}
		for _, m := range perLayer {
			v := medianOrZero(layerSamples[m.name])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			rep.Metrics[m.name] = metricValue{v, m.unit}
		}
		fmt.Fprintf(os.Stderr, "\n%s per-layer spans (last traced unit):\n", b.name)
		printLayerTable(os.Stderr, last.stats)
		fmt.Fprintf(os.Stderr, "tracing overhead: traced wall_s %.3f - untraced wall_s %.3f = %.3f s\n\n",
			medianOrZero(tracedWalls), medianOrZero(walls), overhead)
		names := make([]string, 0, len(rep.Metrics))
		for n := range rep.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "%-40s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
