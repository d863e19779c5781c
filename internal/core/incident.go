package core

// IncidentKind classifies one degradation event the controller survived.
// The taxonomy (DESIGN.md §7) covers the three unreliable boundaries of a
// production interference controller: the strategy (panics), the
// enforcement actuator (rejected applies), and the telemetry pipeline
// (dropped, stale, or corrupt windows).
type IncidentKind int

const (
	// IncidentStrategyPanic: Init or Decide panicked; the controller
	// recovered and held the in-force allocation (Epoch -1 marks Init).
	IncidentStrategyPanic IncidentKind = iota
	// IncidentAllocationRejected: SetAllocation failed mid-run; the
	// controller keeps running on the previous allocation and retries.
	IncidentAllocationRejected
	// IncidentFallbackRejected: after maxApplyRetries consecutive
	// rejections even the last-known-good allocation was rejected; the
	// controller enters exponential apply backoff.
	IncidentFallbackRejected
	// IncidentTelemetryDropped: RunWindow delivered no windows; the
	// previous epoch's telemetry and entropy were held.
	IncidentTelemetryDropped
	// IncidentTelemetryStale: the window timestamp did not advance (a
	// replayed sample); held as for a drop.
	IncidentTelemetryStale
	// IncidentTelemetryCorrupt: a window carried impossible metrics (NaN
	// p95 with completions, NaN or negative IPC); held as for a drop.
	IncidentTelemetryCorrupt
	// IncidentEntropyHeld: the windows were plausible but the entropy
	// computation failed (e.g. no usable samples); strategies received the
	// previous entropy instead of NaN.
	IncidentEntropyHeld
	// NumIncidentKinds counts the kinds above.
	NumIncidentKinds
)

var incidentKindNames = [NumIncidentKinds]string{
	"strategy-panic",
	"allocation-rejected",
	"fallback-rejected",
	"telemetry-dropped",
	"telemetry-stale",
	"telemetry-corrupt",
	"entropy-held",
}

func (k IncidentKind) String() string {
	if k < 0 || int(k) >= len(incidentKindNames) {
		return "unknown"
	}
	return incidentKindNames[k]
}

// Incident is one recorded degradation event.
type Incident struct {
	// Epoch is the controller epoch the incident occurred in; -1 means it
	// happened during strategy initialisation, before the first window.
	Epoch int
	Kind  IncidentKind
	// Detail carries the recovered panic value or the rejection error.
	Detail string
}

// CountIncidents returns how many incidents of the kind the run recorded.
func (r *Result) CountIncidents(kind IncidentKind) int {
	n := 0
	for _, in := range r.Incidents {
		if in.Kind == kind {
			n++
		}
	}
	return n
}
