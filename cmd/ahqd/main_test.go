package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ahq/internal/faults"
)

func TestParseMix(t *testing.T) {
	apps, loads, err := parseMix("xapian:0.5,moses:0.2+stream,fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 4 {
		t.Fatalf("got %d apps", len(apps))
	}
	if apps[0].LC == nil || apps[0].LC.Name != "xapian" {
		t.Errorf("first app = %+v", apps[0])
	}
	if apps[2].BE == nil || apps[2].BE.Name != "stream" {
		t.Errorf("third app = %+v", apps[2])
	}
	if loads["xapian"].At(0) != 0.5 || loads["moses"].At(0) != 0.2 {
		t.Error("loads not wired")
	}
}

func TestParseMixErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"xapian",           // missing load
		"xapian:2.0",       // load out of range
		"ghost:0.5",        // unknown LC
		"xapian:0.5+ghost", // unknown BE
	} {
		if _, _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestParseMixTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/load.csv"
	if err := os.WriteFile(path, []byte("time_s,load\n0,0.1\n60,0.8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	apps, loads, err := parseMix("xapian:@" + path + "+stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 || apps[0].Load == nil {
		t.Fatalf("apps = %+v", apps)
	}
	if got := apps[0].Load.At(0); got != 0.1 {
		t.Errorf("trace At(0) = %g", got)
	}
	if got := apps[0].Load.At(70_000); got != 0.8 {
		t.Errorf("trace At(70s) = %g", got)
	}
	// Trace-driven apps are not retargetable.
	if _, ok := loads["xapian"]; ok {
		t.Error("trace app registered as mutable")
	}
	if _, _, err := parseMix("xapian:@/nonexistent.csv"); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestParseMixBEOnly(t *testing.T) {
	apps, _, err := parseMix("+stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0].BE == nil {
		t.Fatalf("apps = %+v", apps)
	}
}

func TestMakeStrategy(t *testing.T) {
	for _, name := range []string{"arq", "parties", "clite", "unmanaged", "lc-first"} {
		s, err := makeStrategy(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("makeStrategy(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := makeStrategy("ghost", 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestDaemonEndpoints(t *testing.T) {
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Advance a few epochs synchronously.
	for i := 0; i < 6; i++ {
		d.stepEpoch()
	}

	get := func(h http.HandlerFunc, path string) map[string]interface{} {
		t.Helper()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		var out map[string]interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return out
	}

	status := get(d.handleStatus, "/v1/status")
	if status["strategy"] != "arq" {
		t.Errorf("status strategy = %v", status["strategy"])
	}
	if status["epoch"].(float64) != 6 {
		t.Errorf("status epoch = %v", status["epoch"])
	}

	ent := get(d.handleEntropy, "/v1/entropy")
	if ent["ri"].(float64) != 0.8 {
		t.Errorf("entropy ri = %v", ent["ri"])
	}

	allocRec := httptest.NewRecorder()
	d.handleAllocation(allocRec, httptest.NewRequest(http.MethodGet, "/v1/allocation", nil))
	if allocRec.Code != http.StatusOK {
		t.Fatalf("allocation: %d", allocRec.Code)
	}
	if !strings.Contains(allocRec.Body.String(), "CLOS0") {
		t.Errorf("allocation response missing RDT plan:\n%s", allocRec.Body.String())
	}

	telRec := httptest.NewRecorder()
	d.handleTelemetry(telRec, httptest.NewRequest(http.MethodGet, "/v1/telemetry", nil))
	var tel []map[string]interface{}
	if err := json.Unmarshal(telRec.Body.Bytes(), &tel); err != nil {
		t.Fatalf("telemetry: %v", err)
	}
	if len(tel) != 3 {
		t.Fatalf("telemetry has %d apps", len(tel))
	}

	conRec := httptest.NewRecorder()
	d.handleContention(conRec, httptest.NewRequest(http.MethodGet, "/v1/contention", nil))
	var con []map[string]interface{}
	if err := json.Unmarshal(conRec.Body.Bytes(), &con); err != nil {
		t.Fatalf("contention: %v", err)
	}
	if len(con) != 3 {
		t.Fatalf("contention has %d apps", len(con))
	}
	if con[0]["slowdown"].(float64) < 0.5 {
		t.Errorf("contention slowdown = %v", con[0]["slowdown"])
	}

	histRec := httptest.NewRecorder()
	d.handleHistory(histRec, httptest.NewRequest(http.MethodGet, "/v1/history", nil))
	var hist []map[string]interface{}
	if err := json.Unmarshal(histRec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("history: %v", err)
	}
	if len(hist) != 6 {
		t.Fatalf("history has %d epochs, want 6", len(hist))
	}
	if hist[5]["epoch"].(float64) != 5 {
		t.Errorf("last history epoch = %v", hist[5]["epoch"])
	}
	if hist[0]["allocation"].(string) == "" {
		t.Error("history missing allocation strings")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	scrape := func(d *daemon) string {
		rec := httptest.NewRecorder()
		d.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	d, err := newDaemon("arq", "xapian:0.3+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.stepEpoch()
	}
	body := scrape(d)
	for _, want := range []string{
		`ahq_entropy{component="system"}`,
		`ahq_p95_ms{app="xapian"}`,
		`ahq_ipc{app="stream"}`,
		"ahq_epoch 3",
		"# TYPE ahq_entropy gauge",
		"# TYPE ahq_incidents_total counter",
		`ahq_incidents_total{kind="strategy-panic"} 0`,
		`ahq_incidents_total{kind="entropy-held"} 0`,
		"ahq_degraded_epochs_total 0",
		"ahq_down_epochs_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// The controller counters follow the epoch records: a dropped window
	// at controller epoch 1 and a crash over wall epochs 2-3 make one
	// incident, three degraded epochs and two down epochs.
	plan, err := faults.Parse("drop@1")
	if err != nil {
		t.Fatal(err)
	}
	fp := resolveFleet(t, "crash@2x2")
	d, err = newDaemon("arq", "xapian:0.3+stream", 1, 500, 0.8, plan, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.stepEpoch()
	}
	body = scrape(d)
	for _, want := range []string{
		`ahq_incidents_total{kind="telemetry-dropped"} 1`,
		`ahq_incidents_total{kind="strategy-panic"} 0`,
		"ahq_degraded_epochs_total 3",
		"ahq_down_epochs_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// resolveFleet parses a fleet plan and pins it to the daemon's one node.
func resolveFleet(t *testing.T, spec string) *faults.FleetPlan {
	t.Helper()
	fp, err := faults.ParseFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err = fp.Resolve(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// getHistory reads /v1/history.
func getHistory(t *testing.T, d *daemon) []epochSummary {
	t.Helper()
	rec := httptest.NewRecorder()
	d.handleHistory(rec, httptest.NewRequest(http.MethodGet, "/v1/history", nil))
	var hist []epochSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("history: %v", err)
	}
	return hist
}

// TestDaemonHoldsCorruptAndStaleTelemetry: a NaN-corrupted and a stale
// window are detected and held like core.Run holds them — E_S stays the
// last healthy value instead of turning into -1 or replaying the stale
// epoch's — and each is recorded under its own incident kind.
func TestDaemonHoldsCorruptAndStaleTelemetry(t *testing.T) {
	plan, err := faults.Parse("nan@3,stale@5")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		d.stepEpoch()
	}
	hist := getHistory(t, d)
	for epoch, kind := range map[int]string{3: "telemetry-corrupt", 5: "telemetry-stale"} {
		es, held := hist[epoch].ES, hist[epoch-1].ES
		if math.IsNaN(es) || es < 0 || es != held {
			t.Errorf("epoch %d: E_S = %g, want the held value %g", epoch, es, held)
		}
		if got := hist[epoch].Incidents; len(got) != 1 || got[0] != kind {
			t.Errorf("epoch %d: incidents %v, want [%s]", epoch, got, kind)
		}
	}
	rec := httptest.NewRecorder()
	d.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`ahq_incidents_total{kind="telemetry-corrupt"} 1`,
		`ahq_incidents_total{kind="telemetry-stale"} 1`,
		"ahq_degraded_epochs_total 2",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, rec.Body.String())
		}
	}
}

// TestDaemonChaosPlanCountsControllerEpochs: chaos-plan epochs count the
// epochs the node was up, for the engine and the strategy alike. With the
// node down over wall epochs 1-2, controller epoch 4 is wall epoch 6, and
// the planned drop and panic both land there.
func TestDaemonChaosPlanCountsControllerEpochs(t *testing.T) {
	plan, err := faults.Parse("drop@4,panic@4")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, plan, resolveFleet(t, "crash@1x2"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		d.stepEpoch()
	}
	for _, h := range getHistory(t, d) {
		want := []string(nil)
		if h.Epoch == 6 {
			want = []string{"telemetry-dropped", "strategy-panic"}
		}
		if !reflect.DeepEqual(h.Incidents, want) {
			t.Errorf("wall epoch %d: incidents %v, want %v", h.Epoch, h.Incidents, want)
		}
	}
}

// TestDaemonConcurrentSoak runs the epoch loop under a chaos plan and a
// fleet plan while other goroutines hit every endpoint; under -race it
// checks that the handlers and the loop share state only under the lock.
func TestDaemonConcurrentSoak(t *testing.T) {
	plan, err := faults.Parse("panic@3,apply@5x3,drop@9,stale@12,nan@15x2,apply@150+")
	if err != nil {
		t.Fatal(err)
	}
	fp := resolveFleet(t, "crash@20x5,blackout@40x3,crash@190+")
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 100, 0.8, plan, fp)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 200
	mux := d.routes()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/status", "/v1/telemetry", "/v1/allocation",
		"/v1/entropy", "/v1/contention", "/v1/history", "/metrics", "/v1/load"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				if path == "/v1/load" {
					req = httptest.NewRequest(http.MethodPost, fmt.Sprintf("%s?app=xapian&frac=0.%d", path, 1+i%9), nil)
				}
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s %s: %d %s", req.Method, path, rec.Code, rec.Body.String())
					return
				}
			}
		}(path)
	}
	for i := 0; i < steps; i++ {
		d.stepEpoch()
	}
	close(done)
	wg.Wait()
	if d.epoch != steps || d.downEpochs != 5+10 {
		t.Errorf("epoch = %d, down epochs = %d; want %d and 15", d.epoch, d.downEpochs, steps)
	}
	if err := d.engine.Allocation().Validate(d.engine.Spec(),
		[]string{"xapian", "moses", "stream"}); err != nil {
		t.Errorf("allocation invalid after the soak: %v", err)
	}
}

func TestHistoryRingBuffer(t *testing.T) {
	d, err := newDaemon("unmanaged", "xapian:0.2+stream", 1, 100, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < historyLen+20; i++ {
		d.stepEpoch()
	}
	if len(d.history) != historyLen {
		t.Errorf("history length %d, want %d", len(d.history), historyLen)
	}
	if d.history[len(d.history)-1].Epoch != historyLen+19 {
		t.Errorf("newest epoch = %d", d.history[len(d.history)-1].Epoch)
	}
}

func TestDaemonLoadEndpoint(t *testing.T) {
	d, err := newDaemon("unmanaged", "xapian:0.3+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	post := func(q string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		d.handleLoad(rec, httptest.NewRequest(http.MethodPost, "/v1/load?"+q, nil))
		return rec
	}
	if rec := post("app=xapian&frac=0.9"); rec.Code != http.StatusOK {
		t.Fatalf("valid load change: %d %s", rec.Code, rec.Body.String())
	}
	if got := d.loads["xapian"].At(0); got != 0.9 {
		t.Errorf("load = %g after change", got)
	}
	if rec := post("app=ghost&frac=0.5"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown app: %d", rec.Code)
	}
	for _, frac := range []string{"1.5", "-0.1", "NaN", "nan", "Inf", "x", ""} {
		if rec := post("app=xapian&frac=" + frac); rec.Code != http.StatusBadRequest {
			t.Errorf("bad frac %q: %d", frac, rec.Code)
		}
	}
	if got := d.loads["xapian"].At(0); got != 0.9 {
		t.Errorf("load = %g after rejected changes, want 0.9 kept", got)
	}
	getRec := httptest.NewRecorder()
	d.handleLoad(getRec, httptest.NewRequest(http.MethodGet, "/v1/load?app=xapian&frac=0.5", nil))
	if getRec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET on load: %d", getRec.Code)
	}
}

// FuzzHandleLoad drives the load endpoint with arbitrary query strings:
// the handler must answer 200, 400 or 404, and a 200 must leave the
// named application's load finite and inside [0,1].
func FuzzHandleLoad(f *testing.F) {
	for _, q := range []string{
		"app=xapian&frac=0.9", "app=xapian&frac=NaN", "app=xapian&frac=-0",
		"app=xapian&frac=1e-320", "app=xapian&frac=+Inf", "app=ghost&frac=0.5",
		"app=xapian&app=ghost&frac=1", "frac=0.5", "app=xapian&frac=0x1p-2", "%zz",
	} {
		f.Add(q)
	}
	d, err := newDaemon("unmanaged", "xapian:0.3+stream", 1, 500, 0.8, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, q string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/load", nil)
		req.URL.RawQuery = q
		rec := httptest.NewRecorder()
		d.handleLoad(rec, req)
		switch rec.Code {
		case http.StatusOK:
			app := req.URL.Query().Get("app")
			ld, ok := d.loads[app]
			if !ok {
				t.Fatalf("query %q: 200 for unknown app %q", q, app)
			}
			if v := ld.At(0); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				t.Fatalf("query %q: load %g accepted", q, v)
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("query %q: status %d", q, rec.Code)
		}
	})
}

func TestSanitize(t *testing.T) {
	if sanitize(1.5) != 1.5 {
		t.Error("finite value changed")
	}
	if got := sanitize(math.NaN()); got != -1 {
		t.Errorf("NaN -> %g, want -1", got)
	}
	if got := sanitize(math.Inf(1)); got != -1 {
		t.Errorf("Inf -> %g, want -1", got)
	}
}

// TestDaemonSurvivesChaosPlan drives the daemon through a plan combining a
// strategy panic, failed applies and a telemetry dropout: no epoch may
// crash, every fault must be counted, and the allocation in force must stay
// valid throughout.
func TestDaemonSurvivesChaosPlan(t *testing.T) {
	plan, err := faults.Parse("panic@2,apply@3x2,drop@5")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		d.stepEpoch()
	}
	if d.incidents == 0 || d.degraded == 0 {
		t.Errorf("incidents = %d, degraded = %d; faults went unrecorded", d.incidents, d.degraded)
	}
	if err := d.engine.Allocation().Validate(d.engine.Spec(),
		[]string{"xapian", "moses", "stream"}); err != nil {
		t.Errorf("allocation invalid after chaos: %v", err)
	}
	rec := httptest.NewRecorder()
	d.handleStatus(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var status map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status["incidents"].(float64) == 0 {
		t.Error("status endpoint does not report incidents")
	}
}

func TestDaemonFleetPlan(t *testing.T) {
	fp, err := faults.ParseFleet("crash@2x3,blackout@7x2")
	if err != nil {
		t.Fatal(err)
	}
	fp, err = fp.Resolve(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon("arq", "xapian:0.3,moses:0.2+stream", 1, 500, 0.8, nil, fp)
	if err != nil {
		t.Fatal(err)
	}
	simAt4 := 0.0
	for i := 0; i < 10; i++ {
		if i == 4 {
			simAt4 = d.engine.NowMs()
		}
		d.stepEpoch()
	}
	// Epochs 2-4 are down: no simulated time advances, three down epochs,
	// one crash with every app orphaned.
	if d.downEpochs != 3 || !d.failed {
		t.Errorf("downEpochs = %d failed = %v, want 3/true", d.downEpochs, d.failed)
	}
	if d.evictions != 3 {
		t.Errorf("evictions = %d, want 3 (whole mix at one crash)", d.evictions)
	}
	if simAt4 != 2*500 {
		t.Errorf("sim time at epoch 4 = %g ms, want 1000 (frozen during the crash)", simAt4)
	}
	// Epochs 7-8 are blacked out: telemetry drops count as incidents but
	// not as down epochs.
	if d.incidents < 2 {
		t.Errorf("incidents = %d, want >= 2 from the blackout", d.incidents)
	}
	if d.epoch != 10 {
		t.Errorf("epoch = %d, want 10 (crash must not stall the clock)", d.epoch)
	}
	rec := httptest.NewRecorder()
	d.handleStatus(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var status map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{"failed_nodes": 1, "down_epochs": 3, "evictions": 3} {
		if got := status[key].(float64); got != want {
			t.Errorf("status %s = %v, want %v", key, got, want)
		}
	}
}

func TestDaemonFleetPlanRejectsDegrade(t *testing.T) {
	fp, err := faults.ParseFleet("crash@2x3,degrade@5x2")
	if err != nil {
		t.Fatal(err)
	}
	fp, err = fp.Resolve(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = newDaemon("arq", "xapian:0.3+stream", 1, 500, 0.8, nil, fp)
	if err == nil {
		t.Fatal("newDaemon accepted a fleet plan with a degrade event")
	}
	if !strings.Contains(err.Error(), "degrade@5x2") {
		t.Errorf("error %q does not name the degrade event", err)
	}
}

func TestDaemonFleetPlanRejectsOtherNodes(t *testing.T) {
	fp, err := faults.ParseFleet("crash@2/node=3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Resolve(1, 1); err == nil {
		t.Error("fleet plan naming node 3 resolved against a one-node fleet")
	}
}
