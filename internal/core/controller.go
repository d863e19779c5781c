// Package core implements the Ah-Q controller: the daemon loop that every
// monitoring epoch (500 ms in the paper) reads tail latency and IPC from the
// node, computes the system entropy, hands the telemetry to the plugged-in
// scheduling strategy, and applies the allocation the strategy returns.
// It also aggregates the run-level results the evaluation reports: average
// entropies, per-application latency and IPC, yield, and QoS violations.
package core

import (
	"fmt"
	"math"

	"ahq/internal/entropy"
	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/workload"
)

// Options configure one controlled run.
type Options struct {
	// EpochMs is the monitoring interval; 0 means the paper's 500 ms.
	EpochMs float64
	// WarmupMs is discarded from run-level statistics (the system needs a
	// few epochs to converge); 0 means 10000 ms, negative means no
	// warm-up.
	WarmupMs float64
	// DurationMs is the measured horizon after warm-up; 0 means 20000 ms.
	DurationMs float64
	// RI is the relative importance of LC applications; 0 means the
	// paper's 0.8.
	RI float64
	// RecordTimeline retains per-epoch windows and allocations in the
	// result (needed by the Fig. 13 experiment; off by default to keep
	// sweeps lean).
	RecordTimeline bool
}

// WithDefaults returns the options as Run will actually interpret them,
// zero fields replaced by the documented defaults. Exported for callers
// that key work on the effective options — the fleet engine's node-outcome
// cache serialises the normalised form so that a default spelled
// explicitly and a zero value cannot split a cache key.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.EpochMs <= 0 {
		o.EpochMs = 500
	}
	if o.WarmupMs < 0 {
		o.WarmupMs = 0
	} else if o.WarmupMs == 0 {
		o.WarmupMs = 10000
	}
	if o.DurationMs <= 0 {
		o.DurationMs = 20000
	}
	if o.RI == 0 {
		o.RI = entropy.DefaultRI
	}
	return o
}

// EpochRecord is one monitoring interval's observation and decision.
type EpochRecord struct {
	TimeMs       float64
	Apps         []sched.AppWindow
	ELC, EBE, ES float64
	Allocation   machine.Allocation
	Adjusted     bool
	LCViolations int
	QueuedTotal  int
	DroppedTotal int
	// TelemetryOK is false when this epoch's observation was dropped,
	// stale, or corrupt and the previous one was held instead.
	TelemetryOK bool
	// Degraded reports whether the controller operated degraded this epoch
	// (any incident, or an apply suppressed by backoff).
	Degraded bool
	// Incidents are this epoch's degradation events, if any.
	Incidents []Incident
}

// AppResult is the run-level summary for one application.
type AppResult struct {
	Spec sched.AppSpec
	// MeanP95Ms averages the epoch p95 values over the measured horizon
	// (TL_i1 of the paper's tables). LC only.
	MeanP95Ms float64
	// ViolationEpochs counts measured epochs whose p95 exceeded the
	// target. LC only.
	ViolationEpochs int
	// Completed and Dropped total over the measured horizon. LC only.
	Completed, Dropped int
	// MeanIPC averages the epoch IPC values. BE only.
	MeanIPC float64
	// Sample is the run-level entropy input derived from the above.
	LCSample entropy.LCSample
	BESample entropy.BESample
}

// Result is the outcome of one controlled run.
type Result struct {
	Strategy string
	// MeanELC/MeanEBE/MeanES average the per-epoch entropies over the
	// measured horizon (the values the paper's bar charts report).
	MeanELC, MeanEBE, MeanES float64
	// RunELC/RunEBE/RunES are computed from run-level mean latencies and
	// IPCs (the values the paper's Table II reports).
	RunELC, RunEBE, RunES float64
	// Yield is the ratio of LC applications whose run-level Q_i is zero.
	Yield float64
	// Apps holds per-application summaries, LC first.
	Apps []AppResult
	// Epochs counts measured monitoring intervals; Adjustments counts
	// epochs in which the strategy changed the allocation.
	Epochs, Adjustments int
	// TotalViolationEpochs sums LC violation epochs over applications
	// (the "tail latency violations" count of Fig. 13).
	TotalViolationEpochs int
	// Timeline holds per-epoch records when Options.RecordTimeline.
	Timeline []EpochRecord
	// FinalAllocation is the allocation in force when the run ended.
	FinalAllocation machine.Allocation
	// Incidents records every degradation event the run survived, in
	// epoch order (empty on a healthy run).
	Incidents []Incident
	// DegradedEpochs counts monitoring intervals (warm-up included) in
	// which the controller operated degraded: an incident occurred or a
	// wanted adjustment was suppressed by apply backoff.
	DegradedEpochs int
}

// Degradation policy bounds (DESIGN.md §7). An allocation rejection is
// retried on the strategy's next decisions for maxApplyRetries consecutive
// epochs before the controller re-asserts the last-known-good allocation;
// if even that is rejected the actuator itself is down and applies are
// suppressed for an exponentially growing, capped number of epochs.
const (
	maxApplyRetries  = 3
	maxBackoffEpochs = 8
)

// guard runs a strategy call, converting a panic into a recorded message
// so a misbehaving strategy cannot crash the run; the caller then holds the
// allocation in force.
func guard(call func() machine.Allocation) (alloc machine.Allocation, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	return call(), ""
}

// corruptWindows reports why an epoch's windows are physically impossible
// ("" when plausible): completions with NaN latency, negative latency, or
// NaN/negative BE IPC. Such windows come from a corrupted telemetry path
// and must not reach the entropy computation or be mistaken for starvation.
func corruptWindows(ws []sched.AppWindow) string {
	for _, w := range ws {
		if w.Spec.Class == workload.LC {
			if w.Completed > 0 && math.IsNaN(w.P95Ms) {
				return w.Spec.Name + ": completions with NaN p95"
			}
			if !math.IsNaN(w.P95Ms) && w.P95Ms < 0 {
				return w.Spec.Name + ": negative p95"
			}
		} else if math.IsNaN(w.IPC) || w.IPC < 0 {
			return w.Spec.Name + ": NaN or negative IPC"
		}
	}
	return ""
}

// Controller is the Ah-Q control loop stepped one monitoring epoch at a
// time: Run steps it over a fixed horizon, and the ahqd daemon steps it
// once per epoch its node is up, for as long as it runs. Its state is
// O(applications) and does not grow with the number of epochs stepped.
// Not safe for concurrent use.
//
// The controller degrades instead of dying: a strategy panic holds the
// in-force allocation, a mid-run allocation rejection is retried and then
// replaced by the last-known-good allocation, and dropped/stale/corrupt
// telemetry holds the previous epoch's observation and entropy rather than
// feeding NaN to strategies. Every such event is recorded as an Incident
// (DESIGN.md §7).
type Controller struct {
	engine     Engine
	strategy   sched.Strategy
	epochMs    float64
	sys        entropy.System
	specs      []sched.AppSpec
	warmEpochs int
	epoch      int

	// res holds the run-level counters; its Incidents only the one
	// NewController may record, since each epoch's incidents travel in
	// that epoch's record.
	res Result
	// acc is indexed like specs.
	acc                   []appAccum
	elcSum, ebeSum, esSum float64
	measured              int

	// Degradation state: the last allocation the node accepted, the last
	// healthy telemetry (held over fault epochs), and the retry/backoff
	// counters of the apply path.
	lastGood                               machine.Allocation
	heldApps                               []sched.AppWindow
	heldELC, heldEBE, heldES               float64
	lastNowMs                              float64
	rejectStreak, backoffLen, backoffUntil int
}

// appAccum is one application's measured-horizon accumulator.
type appAccum struct {
	// sum and n average the epoch p95 (LC) or IPC (BE) values, summing in
	// epoch order and dividing once, exactly as metrics.Mean does.
	sum                float64
	n                  int
	compl, drops, viol int
}

// mean is the running average, NaN before any sample.
func (a *appAccum) mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// NewController initialises the strategy and applies its initial
// allocation. A strategy panic in Init is recorded and degrades to the
// allocation already in force (the engine starts unmanaged); an initial
// allocation the node rejects is a configuration error.
func NewController(engine Engine, strategy sched.Strategy, opts Options) (*Controller, error) {
	opts = opts.withDefaults()
	specs := engine.AppSpecs()
	c := &Controller{
		engine:   engine,
		strategy: strategy,
		epochMs:  opts.EpochMs,
		sys:      entropy.System{RI: opts.RI},
		specs:    specs,
		res:      Result{Strategy: strategy.Name()},
		acc:      make([]appAccum, len(specs)),
		heldELC:  math.NaN(),
		heldEBE:  math.NaN(),
		heldES:   math.NaN(),
	}
	c.warmEpochs = int(math.Ceil(opts.WarmupMs / opts.EpochMs))
	alloc, initPanic := guard(func() machine.Allocation { return strategy.Init(engine.Spec(), specs) })
	if initPanic != "" {
		c.res.Incidents = append(c.res.Incidents, Incident{Epoch: -1, Kind: IncidentStrategyPanic, Detail: initPanic})
		alloc = engine.Allocation()
	}
	if err := engine.SetAllocation(alloc); err != nil {
		return nil, fmt.Errorf("core: %s initial allocation rejected: %w", strategy.Name(), err)
	}
	c.lastGood = engine.Allocation()
	c.lastNowMs = engine.NowMs()
	return c, nil
}

// Step runs one monitoring epoch — observe, compute the entropies, decide,
// apply — and returns its record. The engine's run-level statistics are
// reset when the warm-up ends.
func (c *Controller) Step() EpochRecord {
	epoch := c.epoch
	c.epoch++
	if epoch == c.warmEpochs {
		c.engine.ResetRunStats()
	}
	var incidents []Incident
	windows := c.engine.RunWindow(c.epochMs)
	nowMs := c.engine.NowMs()

	winOK := true
	switch {
	case len(windows) == 0:
		winOK = false
		incidents = append(incidents, Incident{Epoch: epoch,
			Kind: IncidentTelemetryDropped, Detail: "no windows delivered"})
	case nowMs <= c.lastNowMs:
		winOK = false
		incidents = append(incidents, Incident{Epoch: epoch,
			Kind: IncidentTelemetryStale, Detail: fmt.Sprintf("window timestamp %.0f ms did not advance", nowMs)})
	default:
		if why := corruptWindows(windows); why != "" {
			winOK = false
			incidents = append(incidents, Incident{Epoch: epoch,
				Kind: IncidentTelemetryCorrupt, Detail: why})
		}
	}
	if nowMs > c.lastNowMs {
		c.lastNowMs = nowMs
	}

	tel := sched.Telemetry{Epoch: epoch, TelemetryOK: winOK}
	if winOK {
		tel.TimeMs = nowMs
		tel.Apps = orderWindows(windows, c.specs)
		lcS, beS := SamplesFromWindows(tel.Apps)
		elc, ebe, es, err := c.sys.Compute(lcS, beS)
		if err == nil {
			tel.ELC, tel.EBE, tel.ES = elc, ebe, es
			c.heldELC, c.heldEBE, c.heldES = elc, ebe, es
		} else {
			// Plausible windows but no computable entropy: hold the
			// previous value so strategies never see NaN mid-run.
			tel.TelemetryOK = false
			tel.ELC, tel.EBE, tel.ES = c.heldELC, c.heldEBE, c.heldES
			incidents = append(incidents, Incident{Epoch: epoch,
				Kind: IncidentEntropyHeld, Detail: err.Error()})
		}
		c.heldApps = tel.Apps
	} else {
		// Hold the previous healthy observation; before any healthy
		// epoch exists the apps are empty and the entropies NaN.
		tel.TimeMs = c.lastNowMs
		tel.Apps = c.heldApps
		tel.ELC, tel.EBE, tel.ES = c.heldELC, c.heldEBE, c.heldES
	}

	inMeasure := epoch >= c.warmEpochs
	if inMeasure && tel.TelemetryOK {
		c.elcSum += tel.ELC
		c.ebeSum += tel.EBE
		c.esSum += tel.ES
		c.measured++
	}

	// Per-application accumulation only for genuinely fresh windows;
	// held (replayed) observations must not be double counted.
	violations := 0
	queued, dropped := 0, 0
	if winOK {
		for i, w := range tel.Apps {
			a := &c.acc[i]
			if w.Spec.Class == workload.LC {
				queued += w.QueueLen
				dropped += w.Dropped
				if inMeasure {
					if !math.IsNaN(w.P95Ms) {
						a.sum += w.P95Ms
						a.n++
					}
					a.compl += w.Completed
					a.drops += w.Dropped
					if w.Violates() {
						a.viol++
						violations++
					}
				} else if w.Violates() {
					violations++
				}
			} else if inMeasure {
				a.sum += w.IPC
				a.n++
			}
		}
	}
	if inMeasure {
		c.res.Epochs++
		c.res.TotalViolationEpochs += violations
	}

	cur := c.engine.Allocation()
	next, panicMsg := guard(func() machine.Allocation { return c.strategy.Decide(tel, cur) })
	if panicMsg != "" {
		incidents = append(incidents, Incident{Epoch: epoch,
			Kind: IncidentStrategyPanic, Detail: panicMsg})
		next = cur // hold the in-force allocation
	}
	// A rejected apply leaves the allocation in force (Engine contract),
	// so the record needs a fresh copy only when an apply succeeded.
	inForce := cur
	adjusted := !next.Equal(cur)
	suppressed := false
	if adjusted {
		if epoch < c.backoffUntil {
			// The actuator was recently rejecting even the known-good
			// allocation; do not hammer it.
			adjusted, suppressed = false, true
		} else if err := c.engine.SetAllocation(next); err == nil {
			c.rejectStreak, c.backoffLen = 0, 0
			c.lastGood = c.engine.Allocation()
			inForce = c.lastGood
			if inMeasure {
				c.res.Adjustments++
			}
		} else {
			adjusted = false
			c.rejectStreak++
			incidents = append(incidents, Incident{Epoch: epoch,
				Kind: IncidentAllocationRejected, Detail: err.Error()})
			if c.rejectStreak >= maxApplyRetries {
				c.rejectStreak = 0
				if fbErr := c.engine.SetAllocation(c.lastGood); fbErr != nil {
					incidents = append(incidents, Incident{Epoch: epoch,
						Kind: IncidentFallbackRejected, Detail: fbErr.Error()})
					if c.backoffLen == 0 {
						c.backoffLen = 1
					} else if c.backoffLen*2 <= maxBackoffEpochs {
						c.backoffLen *= 2
					} else {
						c.backoffLen = maxBackoffEpochs
					}
					c.backoffUntil = epoch + 1 + c.backoffLen
				} else {
					inForce = c.lastGood
				}
			}
		}
	}
	degraded := suppressed || len(incidents) > 0
	if degraded {
		c.res.DegradedEpochs++
	}
	return EpochRecord{
		TimeMs:       tel.TimeMs,
		Apps:         tel.Apps,
		ELC:          tel.ELC,
		EBE:          tel.EBE,
		ES:           tel.ES,
		Allocation:   inForce,
		Adjusted:     adjusted,
		LCViolations: violations,
		QueuedTotal:  queued,
		DroppedTotal: dropped,
		TelemetryOK:  tel.TelemetryOK,
		Degraded:     degraded,
		Incidents:    incidents,
	}
}

// Result aggregates the epochs stepped so far into run-level results. Its
// Incidents holds only the incident NewController recorded, if any; every
// later incident is in the record of the Step that met it.
func (c *Controller) Result() *Result {
	res := c.res
	res.Incidents = append([]Incident(nil), c.res.Incidents...)
	if c.measured > 0 {
		res.MeanELC = c.elcSum / float64(c.measured)
		res.MeanEBE = c.ebeSum / float64(c.measured)
		res.MeanES = c.esSum / float64(c.measured)
	}

	// Run-level summaries and entropies from mean latencies/IPCs.
	var lcRun []entropy.LCSample
	var beRun []entropy.BESample
	for i, s := range c.specs {
		a := &c.acc[i]
		ar := AppResult{Spec: s}
		if s.Class == workload.LC {
			// Run-level tail latency is the exact percentile over every
			// completion in the measured horizon; the windowed mean is a
			// fallback for starved runs.
			ar.MeanP95Ms = c.engine.RunP95(s.Name)
			if math.IsNaN(ar.MeanP95Ms) {
				ar.MeanP95Ms = a.mean()
			}
			ar.ViolationEpochs = a.viol
			ar.Completed, ar.Dropped = a.compl, a.drops
			ar.LCSample = entropy.LCSample{
				Name: s.Name, IdealMs: s.IdealP95Ms,
				MeasuredMs: ar.MeanP95Ms, TargetMs: s.QoSTargetMs,
			}
			if !math.IsNaN(ar.MeanP95Ms) {
				lcRun = append(lcRun, ar.LCSample)
			}
		} else {
			ar.MeanIPC = c.engine.RunIPC(s.Name)
			if math.IsNaN(ar.MeanIPC) {
				ar.MeanIPC = a.mean()
			}
			ar.BESample = entropy.BESample{Name: s.Name, SoloIPC: s.SoloIPC, MeasuredIPC: ar.MeanIPC}
			if !math.IsNaN(ar.MeanIPC) && ar.MeanIPC > 0 {
				beRun = append(beRun, ar.BESample)
			}
		}
		res.Apps = append(res.Apps, ar)
	}
	if elc, ebe, es, err := c.sys.Compute(lcRun, beRun); err == nil {
		res.RunELC, res.RunEBE, res.RunES = elc, ebe, es
	}
	if y, err := entropy.Yield(lcRun); err == nil {
		res.Yield = y
	}
	res.FinalAllocation = c.engine.Allocation()
	return &res
}

// Run drives the engine under the strategy for warm-up plus the measured
// horizon and aggregates the results: NewController, one Step per epoch,
// then Result with every incident in epoch order. After a successful start
// the only error is impossible input (an initial allocation the node
// rejects), a configuration error rather than a runtime fault.
func Run(engine Engine, strategy sched.Strategy, opts Options) (*Result, error) {
	c, err := NewController(engine, strategy, opts)
	if err != nil {
		return nil, err
	}
	// opts stay raw for NewController: defaulting twice would turn a
	// negative warm-up into the default one.
	o := opts.withDefaults()
	total := int(math.Ceil((o.WarmupMs + o.DurationMs) / o.EpochMs))
	var incidents []Incident
	var timeline []EpochRecord
	for epoch := 0; epoch < total; epoch++ {
		rec := c.Step()
		incidents = append(incidents, rec.Incidents...)
		if opts.RecordTimeline {
			timeline = append(timeline, rec)
		}
	}
	res := c.Result()
	res.Incidents = append(res.Incidents, incidents...)
	res.Timeline = timeline
	return res, nil
}

// SamplesFromWindows converts epoch telemetry into entropy inputs, skipping
// idle applications (no measurement) and treating a starved application's
// lower-bound latency as its measured latency; a starved application with
// no observable lower bound is clamped to a saturated, target-exceeding
// latency so it still counts against E_LC.
func SamplesFromWindows(apps []sched.AppWindow) ([]entropy.LCSample, []entropy.BESample) {
	var lc []entropy.LCSample
	var be []entropy.BESample
	for _, w := range apps {
		if w.Spec.Class == workload.LC {
			if math.IsNaN(w.P95Ms) || w.P95Ms <= 0 {
				if w.QueueLen == 0 && w.Dropped == 0 && w.Completed == 0 {
					continue // idle: nothing offered, nothing to measure
				}
				// Starved with no usable latency observation (e.g. the
				// backlog arrived at the window boundary, so even the
				// oldest-request age is zero): saturate the sample at a
				// target-exceeding lower bound, mirroring the BE zero-IPC
				// clamp below, so the worst interference case raises E_LC
				// instead of vanishing from it.
				w.P95Ms = w.Spec.QoSTargetMs * 1e3
			}
			lc = append(lc, entropy.LCSample{
				Name: w.Spec.Name, IdealMs: w.Spec.IdealP95Ms,
				MeasuredMs: w.P95Ms, TargetMs: w.Spec.QoSTargetMs,
			})
		} else {
			if w.IPC <= 0 {
				// A fully starved BE application has zero measured IPC;
				// clamp to a sliver so E_BE saturates instead of erroring.
				w.IPC = w.Spec.SoloIPC * 1e-3
			}
			be = append(be, entropy.BESample{
				Name: w.Spec.Name, SoloIPC: w.Spec.SoloIPC, MeasuredIPC: w.IPC,
			})
		}
	}
	return lc, be
}

// orderWindows copies engine windows into spec order (LC first). A spec
// without a window gets the zero window; were a name delivered twice, the
// later window would win.
func orderWindows(windows []sched.AppWindow, specs []sched.AppSpec) []sched.AppWindow {
	out := make([]sched.AppWindow, len(specs))
	for i, s := range specs {
		for j := len(windows) - 1; j >= 0; j-- {
			if windows[j].Spec.Name == s.Name {
				out[i] = windows[j]
				break
			}
		}
	}
	return out
}
