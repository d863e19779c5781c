package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMissRatioShape(t *testing.T) {
	c := CacheProfile{WorkingSetWays: 8, MinMissRatio: 0.15}
	if got := c.MissRatio(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("MissRatio(0) = %g, want 1", got)
	}
	if got := c.MissRatio(1e6); math.Abs(got-0.15) > 1e-6 {
		t.Errorf("MissRatio(inf) = %g, want floor 0.15", got)
	}
	if got := c.MissRatio(-3); got != c.MissRatio(0) {
		t.Errorf("negative ways should clamp to 0")
	}
}

func TestMissRatioProperties(t *testing.T) {
	f := func(wsRaw, floorRaw, w1Raw, w2Raw uint16) bool {
		c := CacheProfile{
			WorkingSetWays: float64(wsRaw%200)/10 + 0.1,
			MinMissRatio:   float64(floorRaw%1000) / 1000,
		}
		w1 := float64(w1Raw%400) / 10
		w2 := float64(w2Raw%400) / 10
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		m1, m2 := c.MissRatio(w1), c.MissRatio(w2)
		// Bounded in [floor, 1] and monotone non-increasing in ways.
		return m1 >= c.MinMissRatio-1e-12 && m1 <= 1+1e-12 && m2 <= m1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateHitsTargets(t *testing.T) {
	app, err := Calibrate("test", 4, 1.0, 2.77, 4.22, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	// The service distribution's p95 must equal the requested ideal p95.
	if got := app.ServiceP95(); math.Abs(got-2.77) > 1e-6 {
		t.Errorf("ServiceP95 = %g, want 2.77", got)
	}
	// The knee position pins the max load: rho = 0.85 at max load.
	rho := app.MaxLoadQPS * app.ServiceMeanMs / 1000 / float64(app.Threads)
	if math.Abs(rho-0.85) > 1e-9 {
		t.Errorf("knee rho = %g, want 0.85", rho)
	}
}

func TestCalibrateRejectsBadInputs(t *testing.T) {
	cases := []struct {
		mean, ideal, target, rho float64
	}{
		{2, 1, 4, 0.85},    // mean > ideal
		{1, 5, 4, 0.85},    // ideal > target
		{1, 2.77, 4, 0},    // bad rho
		{1, 2.77, 4, 1},    // bad rho
		{0.1, 3.9, 4, 0.8}, // tail ratio beyond log-normal reach
	}
	for _, c := range cases {
		if _, err := Calibrate("bad", 4, c.mean, c.ideal, c.target, c.rho); err == nil {
			t.Errorf("Calibrate(%v) accepted", c)
		}
	}
}

func TestCatalogLCApps(t *testing.T) {
	// Table IV anchors for the four apps whose max loads the calibration
	// reproduces directly.
	wantLoad := map[string]float64{
		"xapian":  3400,
		"moses":   1800,
		"img-dnn": 5300,
		"sphinx":  4.8,
	}
	wantTarget := map[string]float64{
		"xapian": 4.22, "moses": 10.53, "img-dnn": 3.98,
		"masstree": 1.05, "sphinx": 2682, "silo": 1.27,
	}
	for _, name := range LCNames() {
		app, err := LCByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if want, ok := wantLoad[name]; ok {
			if math.Abs(app.MaxLoadQPS-want)/want > 0.02 {
				t.Errorf("%s: MaxLoadQPS = %.0f, want ~%.0f (Table IV)", name, app.MaxLoadQPS, want)
			}
		}
		if want := wantTarget[name]; math.Abs(app.QoSTargetMs-want) > 1e-9 {
			t.Errorf("%s: QoSTargetMs = %g, want %g (Table IV)", name, app.QoSTargetMs, want)
		}
	}
}

func TestCatalogBEApps(t *testing.T) {
	for _, name := range BENames() {
		app, err := BEByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	stream := MustBE("stream")
	if stream.Threads != 10 {
		t.Errorf("stream threads = %d, want 10 (paper Section V)", stream.Threads)
	}
	if stream.Cache.MinMissRatio < 0.9 {
		t.Errorf("stream miss floor = %g, want ~1 (no reuse)", stream.Cache.MinMissRatio)
	}
}

func TestCatalogUnknownNames(t *testing.T) {
	if _, err := LCByName("nope"); err == nil {
		t.Error("unknown LC accepted")
	}
	// A rejected name must not leave an entry behind: callers may pass
	// arbitrary user input, and the memo would otherwise grow with it.
	if _, ok := lcCache.Load("nope"); ok {
		t.Error("unknown LC name left an entry in lcCache")
	}
	if _, err := BEByName("nope"); err == nil {
		t.Error("unknown BE accepted")
	}
}

// TestCatalogSigmaGolden pins the bits of every sigma FitSigmaWithTerms
// fits for the catalog's term-mix applications. Every paper table depends
// on these values, so any change to the fit (draw order, sample count,
// order statistic, bisection schedule) must keep them bit-identical.
func TestCatalogSigmaGolden(t *testing.T) {
	golden := map[string]uint64{
		"xapian":   0x3fe93017a06e30ec, // 0.7871206410796083
		"moses":    0x3fcfc4ac7e32f026, // 0.24818950807628076
		"masstree": 0x3fd19345a805e8c1, // 0.27461377533439807
	}
	for name, want := range golden {
		app, err := calibrateCatalog(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(app.ServiceSigma); got != want {
			t.Errorf("%s: fitted sigma %v (bits %#x), want %v (bits %#x)",
				name, app.ServiceSigma, got, math.Float64frombits(want), want)
		}
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLC(unknown) did not panic")
		}
	}()
	MustLC("nope")
}

func TestLCValidateCatchesEverything(t *testing.T) {
	good := MustLC("xapian")
	mutations := []func(*LCApp){
		func(a *LCApp) { a.Name = "" },
		func(a *LCApp) { a.Threads = 0 },
		func(a *LCApp) { a.ServiceMeanMs = 0 },
		func(a *LCApp) { a.ServiceSigma = -1 },
		func(a *LCApp) { a.MaxLoadQPS = 0 },
		func(a *LCApp) { a.IdealP95Ms = a.ServiceMeanMs / 2 },
		func(a *LCApp) { a.QoSTargetMs = a.IdealP95Ms },
		func(a *LCApp) { a.ClientQueueCap = 0 },
	}
	for i, mut := range mutations {
		app := good
		mut(&app)
		if err := app.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestServiceMuConsistency(t *testing.T) {
	// exp(mu + sigma^2/2) must equal the configured mean.
	for _, name := range LCNames() {
		app := MustLC(name)
		mean := math.Exp(app.ServiceMu() + app.ServiceSigma*app.ServiceSigma/2)
		if math.Abs(mean-app.ServiceMeanMs)/app.ServiceMeanMs > 1e-9 {
			t.Errorf("%s: log-normal mean %g != configured %g", name, mean, app.ServiceMeanMs)
		}
	}
}

func TestClassString(t *testing.T) {
	if LC.String() != "LC" || BE.String() != "BE" {
		t.Error("Class strings wrong")
	}
}

// BenchmarkCalibrateCatalog fits every LC model from its catalog entry,
// bypassing the lcCache memo: the one-time cost each fresh process pays
// before its first simulation.
func BenchmarkCalibrateCatalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range LCNames() {
			if _, err := calibrateCatalog(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
