package main

import (
	"reflect"

	"ahq/internal/machine"
	"ahq/internal/sched"
	"ahq/internal/sim"
)

// tracedEngine wraps one simulated node for a traced controller run. It
// records a span for every RunWindow and SetAllocation call, parented to
// the run's core.run span, and the host interval between the starts of
// successive RunWindow calls: one 500 ms controller epoch (window,
// entropy, Decide, apply).
type tracedEngine struct {
	*sim.Engine
	tr          *tracer
	parent, run int64
	lastStart   int64 // start of the previous RunWindow; -1 before the first
	epochMs     []float64
}

func newTracedEngine(e *sim.Engine, tr *tracer, run int64) *tracedEngine {
	return &tracedEngine{Engine: e, tr: tr, run: run, lastStart: -1}
}

func (e *tracedEngine) RunWindow(windowMs float64) []sched.AppWindow {
	start := e.tr.now()
	if e.lastStart >= 0 {
		e.epochMs = append(e.epochMs, float64(start-e.lastStart)/1e6)
	}
	e.lastStart = start
	w := e.Engine.RunWindow(windowMs)
	e.tr.record(span{name: "sim.run_window", start: start, end: e.tr.now(), id: e.tr.newID(), parent: e.parent, run: e.run})
	return w
}

func (e *tracedEngine) SetAllocation(a machine.Allocation) error {
	start := e.tr.now()
	err := e.Engine.SetAllocation(a)
	e.tr.record(span{name: "sim.set_allocation", start: start, end: e.tr.now(), id: e.tr.newID(), parent: e.parent, run: e.run})
	return err
}

// tracedStrategy records a sched.<name>.decide span around every Decide.
type tracedStrategy struct {
	sched.Strategy
	span        string
	tr          *tracer
	parent, run int64
}

func newTracedStrategy(s sched.Strategy, tr *tracer, parent, run int64) *tracedStrategy {
	return &tracedStrategy{Strategy: s, span: "sched." + s.Name() + ".decide", tr: tr, parent: parent, run: run}
}

func (s *tracedStrategy) Decide(t sched.Telemetry, current machine.Allocation) machine.Allocation {
	start := s.tr.now()
	next := s.Strategy.Decide(t, current)
	s.tr.record(span{name: s.span, start: start, end: s.tr.now(), id: s.tr.newID(), parent: s.parent, run: s.run})
	return next
}

// solveStats reads an engine's per-engine memo counters (memo hits, fresh
// solves). SolveStats is called through reflection and its results are
// read by position, so the benchmark still compiles if counters after the
// first two are dropped from the method.
func solveStats(e *sim.Engine) (hits, solves uint64) {
	m := reflect.ValueOf(e).MethodByName("SolveStats")
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() < 2 {
		return 0, 0
	}
	out := m.Call(nil)
	if out[0].Kind() != reflect.Uint64 || out[1].Kind() != reflect.Uint64 {
		return 0, 0
	}
	return out[0].Uint(), out[1].Uint()
}
