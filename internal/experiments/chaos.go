package experiments

import (
	"fmt"

	"ahq/internal/core"
	"ahq/internal/faults"
	"ahq/internal/machine"
	workpool "ahq/internal/pool"
	"ahq/internal/sim"
)

func init() {
	register(Descriptor{
		ID:    "chaos",
		Title: "Graceful degradation under injected faults (robustness extension)",
		Run:   runControllerChaos,
	})
}

// chaosScenario is one seeded fault schedule, expressed in the faults plan
// DSL over controller epochs (500 ms each). Epochs 5-11 are inside the
// measured horizon of both Quick and full runs.
type chaosScenario struct {
	name string
	plan string
}

var chaosScenarios = []chaosScenario{
	{"none", ""},
	{"apply-burst", "apply@6x3"},
	{"apply-persist", "apply@6+"},
	{"telemetry", "drop@5,stale@7,nan@9x2"},
	{"panic-storm", "panic@5x3"},
	{"combined", "panic@5x2,apply@7+,drop@9x2"},
}

// chaosRun pairs a degraded run with the faults actually injected into it.
type chaosRun struct {
	res   *core.Result
	stats faults.Stats
}

// runControllerChaosMix drives one strategy through one fault scenario on
// the standard Stream mix: the engine and the strategy are wrapped by one
// injector, so the run's Result.Incidents must account exactly for the
// injector's Stats — checked by the caller.
func runControllerChaosMix(cfg RunConfig, planSpec string, f StrategyFactory) (chaosRun, error) {
	plan, err := faults.Parse(planSpec)
	if err != nil {
		return chaosRun{}, err
	}
	engine, err := sim.New(sim.Config{
		Spec: machine.DefaultSpec(),
		Seed: cfg.Seed,
		Apps: standardMix(0.50, 0.20, 0.20, "stream"),
	})
	if err != nil {
		return chaosRun{}, err
	}
	warm, dur := horizons(cfg)
	inj := faults.NewInjector(plan)
	res, err := core.Run(inj.Engine(engine), inj.Strategy(f.New(cfg.Seed)),
		core.Options{WarmupMs: warm, DurationMs: dur})
	if err != nil {
		return chaosRun{}, err
	}
	return chaosRun{res: res, stats: inj.Stats()}, nil
}

// accountingError cross-checks that every injected fault surfaced as
// exactly one incident of the matching kind (degradation must be
// observable, not silent), returning a description of any mismatch.
func accountingError(r chaosRun) error {
	checks := []struct {
		label    string
		injected int
		recorded int
	}{
		{"strategy panics", r.stats.StrategyPanics,
			r.res.CountIncidents(core.IncidentStrategyPanic)},
		{"apply failures", r.stats.ApplyFailures,
			r.res.CountIncidents(core.IncidentAllocationRejected) +
				r.res.CountIncidents(core.IncidentFallbackRejected)},
		{"telemetry drops", r.stats.TelemetryDrops,
			r.res.CountIncidents(core.IncidentTelemetryDropped)},
		{"stale replays", r.stats.TelemetryStales,
			r.res.CountIncidents(core.IncidentTelemetryStale)},
		{"metric corruptions", r.stats.MetricCorruptions,
			r.res.CountIncidents(core.IncidentTelemetryCorrupt)},
	}
	for _, c := range checks {
		if c.injected != c.recorded {
			return fmt.Errorf("chaos: %s: injected %d but recorded %d",
				c.label, c.injected, c.recorded)
		}
	}
	return nil
}

// runControllerChaos sweeps fault scenarios x strategies and reports how
// E_S and QoS-violation epochs degrade under faults, plus the incident
// accounting that proves the controller survived them observably.
func runControllerChaos(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "chaos", Title: "Graceful degradation under injected faults"}

	plans := Table{
		Caption: "fault scenarios (plan DSL over 500 ms controller epochs; + = persistent)",
		Columns: []string{"scenario", "plan"},
	}
	for _, sc := range chaosScenarios {
		p, err := faults.Parse(sc.plan)
		if err != nil {
			return nil, err
		}
		plans.AddRow(sc.name, p.String())
	}
	res.Tables = append(res.Tables, plans)

	strategies := []string{"parties", "clite", "arq"}
	p := workpool.New(cfg.Parallel)
	futs := make(map[string]map[string]*workpool.Future[chaosRun], len(strategies))
	for _, name := range strategies {
		f, err := StrategyByName(name)
		if err != nil {
			return nil, err
		}
		futs[name] = make(map[string]*workpool.Future[chaosRun], len(chaosScenarios))
		for _, sc := range chaosScenarios {
			sc := sc
			futs[name][sc.name] = workpool.Submit(p, func() (chaosRun, error) {
				return runControllerChaosMix(cfg, sc.plan, f)
			})
		}
	}

	deg := Table{
		Caption: "degradation under faults (deltas vs the fault-free run of the same strategy)",
		Columns: []string{"strategy", "scenario", "mean E_S", "dE_S", "viol", "dviol",
			"incidents", "degraded epochs", "final alloc"},
		Notes: []string{"every run completes: panics are recovered, rejected applies fall back to last-known-good, held telemetry replaces NaN"},
	}
	breakdown := Table{
		Caption: "combined-scenario incident accounting (recorded incidents vs faults injected)",
		Columns: []string{"strategy", "panic", "rejected", "fallback", "dropped", "stale",
			"corrupt", "entropy-held", "recorded", "injected"},
		Notes: []string{"recorded counts panic+rejected+fallback+dropped+stale+corrupt; every injected fault is recorded as exactly one incident"},
	}
	for _, name := range strategies {
		var base chaosRun
		for _, sc := range chaosScenarios {
			run, err := futs[name][sc.name].Wait()
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, sc.name, err)
			}
			if err := accountingError(run); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, sc.name, err)
			}
			if sc.name == "none" {
				base = run
			}
			r := run.res
			finalOK := "ok"
			if err := r.FinalAllocation.Validate(machine.DefaultSpec(),
				[]string{"xapian", "moses", "img-dnn", "stream"}); err != nil {
				finalOK = "INVALID"
			}
			deg.AddRow(name, sc.name, r.MeanES,
				fmt.Sprintf("%+.3f", r.MeanES-base.res.MeanES),
				r.TotalViolationEpochs,
				fmt.Sprintf("%+d", r.TotalViolationEpochs-base.res.TotalViolationEpochs),
				len(r.Incidents), r.DegradedEpochs, finalOK)
			if sc.name == "combined" {
				panics := r.CountIncidents(core.IncidentStrategyPanic)
				rejected := r.CountIncidents(core.IncidentAllocationRejected)
				fallback := r.CountIncidents(core.IncidentFallbackRejected)
				dropped := r.CountIncidents(core.IncidentTelemetryDropped)
				stale := r.CountIncidents(core.IncidentTelemetryStale)
				corrupt := r.CountIncidents(core.IncidentTelemetryCorrupt)
				breakdown.AddRow(name, panics, rejected, fallback, dropped, stale, corrupt,
					r.CountIncidents(core.IncidentEntropyHeld),
					panics+rejected+fallback+dropped+stale+corrupt,
					run.stats.Total())
			}
		}
	}
	res.Tables = append(res.Tables, deg, breakdown)
	return res, nil
}
