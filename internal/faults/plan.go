// Package faults provides deterministic fault injection for the Ah-Q
// controller: a seeded, epoch-indexed fault plan plus wrappers for the
// engine (core.Engine) and the strategy (sched.Strategy) that make the
// planned faults happen — rejected applies, dropped/stale/NaN-corrupted
// telemetry windows, and strategy panics.
// Everything is reproducible from the plan alone: the same plan against the
// same seeded engine yields byte-identical runs, and an empty plan makes
// every wrapper a pass-through, so the zero-fault path is a true no-op.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// ApplyFail makes SetAllocation/Apply return an error.
	ApplyFail Kind = iota
	// TelemetryDrop makes RunWindow deliver no windows.
	TelemetryDrop
	// TelemetryStale makes RunWindow replay the previous healthy snapshot
	// with its old timestamp (the engine still advances underneath).
	TelemetryStale
	// MetricNaN corrupts the delivered windows' latency/IPC metrics to NaN.
	MetricNaN
	// StrategyPanic makes the wrapped strategy panic inside Decide.
	StrategyPanic
	numKinds
)

var kindNames = [numKinds]string{"apply", "drop", "stale", "nan", "panic"}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one planned fault: a kind active over a controller-epoch range.
type Event struct {
	Kind Kind
	// Epoch is the first controller epoch (0-based) the fault is active in.
	Epoch int
	// Epochs is the duration in epochs (>= 1); ignored when Persistent.
	Epochs int
	// Persistent keeps the fault active from Epoch until the run ends.
	Persistent bool
}

func (e Event) head() eventHead { return eventHead{int(e.Kind), e.Epoch, e.Epochs, e.Persistent} }

// ActiveAt reports whether the event covers the epoch.
func (e Event) ActiveAt(epoch int) bool { return e.head().activeAt(epoch) }

// String renders the event in plan-spec form: "apply@5", "drop@8x3",
// "apply@10+".
func (e Event) String() string { return e.head().render(e.Kind.String()) }

// Plan is a deterministic, epoch-indexed fault schedule. The zero value
// (and nil) is the empty plan: no faults.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// ActiveAt reports whether any event of the kind covers the epoch.
func (p *Plan) ActiveAt(epoch int, k Kind) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == k && e.ActiveAt(epoch) {
			return true
		}
	}
	return false
}

// String renders the plan as a comma-joined spec parseable by Parse; the
// empty plan renders as "-".
func (p *Plan) String() string {
	if p.Empty() {
		return "-"
	}
	return joinEvents(p.Events)
}

// Parse reads a plan spec: comma-separated events of the form
// kind@epoch[xN|+], where kind is one of apply, drop, stale, nan, panic.
// "", "-" and "none" parse to the empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, item := range splitSpec(spec) {
		h, err := parseHead(item, item, "", kindNames[:])
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, Event{Kind: Kind(h.kind), Epoch: h.epoch, Epochs: h.epochs, Persistent: h.persistent})
	}
	sortEvents(p.Events)
	return p, nil
}

// eventHead is the timing grammar both plan DSLs share: the
// kind@epoch[xN|+] head of an event, with the kind as an index into the
// DSL's kind names.
type eventHead struct {
	kind, epoch, epochs int
	persistent          bool
}

// parseHead reads an event head against the kind names. item is the whole
// event and scope ("" or "fleet ") names the DSL; both only shape errors.
func parseHead(head, item, scope string, kinds []string) (eventHead, error) {
	name, at, ok := strings.Cut(head, "@")
	if !ok {
		return eventHead{}, fmt.Errorf("faults: %sevent %q needs kind@epoch", scope, item)
	}
	h := eventHead{kind: slices.Index(kinds, name), epochs: 1}
	if h.kind < 0 {
		return eventHead{}, fmt.Errorf("faults: unknown %sfault kind %q (want %s)",
			scope, name, strings.Join(kinds, "|"))
	}
	if rest, ok := strings.CutSuffix(at, "+"); ok {
		h.persistent = true
		at = rest
	} else if epochStr, durStr, ok := strings.Cut(at, "x"); ok {
		n, err := strconv.Atoi(durStr)
		if err != nil || n < 1 {
			return eventHead{}, fmt.Errorf("faults: %sevent %q: bad duration %q", scope, item, durStr)
		}
		h.epochs = n
		at = epochStr
	}
	epoch, err := strconv.Atoi(at)
	if err != nil || epoch < 0 {
		return eventHead{}, fmt.Errorf("faults: %sevent %q: bad epoch %q", scope, item, at)
	}
	h.epoch = epoch
	return h, nil
}

// activeAt reports whether the head covers the epoch: from its epoch on,
// for its duration (at least one epoch) or for good when persistent.
func (h eventHead) activeAt(epoch int) bool {
	return epoch >= h.epoch && (h.persistent || epoch < h.epoch+max(h.epochs, 1))
}

// render writes the head in spec form: "apply@5", "drop@8x3", "apply@10+".
func (h eventHead) render(kind string) string {
	s := kind + "@" + strconv.Itoa(h.epoch)
	switch {
	case h.persistent:
		return s + "+"
	case h.epochs > 1:
		return s + "x" + strconv.Itoa(h.epochs)
	}
	return s
}

// less is the canonical event order: by epoch, kind, bounded before
// persistent, then duration.
func (h eventHead) less(o eventHead) bool {
	switch {
	case h.epoch != o.epoch:
		return h.epoch < o.epoch
	case h.kind != o.kind:
		return h.kind < o.kind
	case h.persistent != o.persistent:
		return o.persistent
	}
	return h.epochs < o.epochs
}

// splitSpec splits a plan spec into its trimmed, non-empty events; "",
// "-" and "none" hold none.
func splitSpec(spec string) []string {
	var items []string
	if spec = strings.TrimSpace(spec); spec == "-" || spec == "none" {
		return nil
	}
	for _, item := range strings.Split(spec, ",") {
		if item = strings.TrimSpace(item); item != "" {
			items = append(items, item)
		}
	}
	return items
}

// joinEvents renders events as a comma-joined spec.
func joinEvents[E fmt.Stringer](events []E) string {
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Generate draws a reproducible random plan over a horizon of controller
// epochs: for each fault kind up to two events at random epochs in
// [1, horizon) with durations of one to three epochs; ApplyFail events are
// occasionally persistent. Equal seeds yield equal plans.
func Generate(seed int64, horizon int) *Plan {
	if horizon < 2 {
		horizon = 2
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	for k := Kind(0); k < numKinds; k++ {
		for i, n := 0, rng.Intn(3); i < n; i++ {
			ev := Event{Kind: k, Epoch: 1 + rng.Intn(horizon-1), Epochs: 1 + rng.Intn(3)}
			if k == ApplyFail && rng.Intn(5) == 0 {
				ev.Persistent = true
			}
			p.Events = append(p.Events, ev)
		}
	}
	sortEvents(p.Events)
	return p
}

// sortEvents orders events canonically (eventHead.less), so that String
// output (and everything derived from it) is canonical.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool { return events[i].head().less(events[j].head()) })
}
