package experiments

import (
	"strings"
	"testing"
)

func quickCfg() RunConfig { return RunConfig{Seed: 42, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be registered (DESIGN.md §4).
	want := []string{
		"fig1", "table2", "fig2", "fig3a", "fig3b", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "headline",
		"ablation-interval", "ablation-arq", "ablation-ri", "ablation-tunables", "ext-weighted", "ext-heracles", "ext-cluster", "ext-bignode", "ext-fleet", "ext-fleetchaos", "fig4",
		"chaos",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	// All() is sorted by id.
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("All() not sorted")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Caption: "cap",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("x", 1.5)
	tab.AddRow("longer-cell", "v")
	var b strings.Builder
	tab.Fprint(&b)
	out := b.String()
	for _, want := range []string{"cap", "long-column", "1.500", "longer-cell", "note: a note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestStrategyFactories(t *testing.T) {
	if len(AllStrategies()) != 5 {
		t.Fatalf("want the paper's five strategies, got %d", len(AllStrategies()))
	}
	for _, f := range AllStrategies() {
		s := f.New(1)
		if s.Name() != f.Name {
			t.Errorf("factory %q builds strategy %q", f.Name, s.Name())
		}
		// Fresh instance each call (stateful strategies must not be
		// shared across sweep points).
		if f.Name == "arq" || f.Name == "parties" || f.Name == "clite" {
			if f.New(1) == s {
				t.Errorf("factory %q reuses instances", f.Name)
			}
		}
	}
	if _, err := StrategyByName("nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// The experiment smoke tests run every registered artifact in Quick mode:
// an integration pass over the entire stack (catalog -> engine -> controller
// -> strategies -> entropy -> rendering).
func TestExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	// fig13 and fig12 have their own tests below; keep this loop lean.
	skip := map[string]bool{"fig13": true, "fig12": true, "fig10": true, "fig11": true}
	for _, d := range All() {
		if skip[d.ID] {
			continue
		}
		d := d
		t.Run(d.ID, func(t *testing.T) {
			t.Parallel()
			res, err := d.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", d.ID, err)
			}
			if res.ID != d.ID {
				t.Errorf("result id %q", res.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s produced no tables", d.ID)
			}
			for _, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", d.ID, tab.Caption)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("%s: row width %d != %d columns", d.ID, len(row), len(tab.Columns))
					}
				}
			}
			var b strings.Builder
			res.Fprint(&b)
			if !strings.Contains(b.String(), d.ID) {
				t.Error("rendered result missing its id")
			}
		})
	}
}

func TestFig13Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("not -short")
	}
	res, err := Lookup("fig13")
	if !err {
		t.Fatal("fig13 missing")
	}
	out, errr := res.Run(quickCfg())
	if errr != nil {
		t.Fatal(errr)
	}
	// Summary plus three per-strategy timelines.
	if len(out.Tables) != 4 {
		t.Fatalf("fig13 produced %d tables, want 4", len(out.Tables))
	}
	if len(out.Tables[0].Rows) != 3 {
		t.Errorf("summary has %d strategies, want 3", len(out.Tables[0].Rows))
	}
}

// The worker pool must not change what a runner renders: the same experiment at
// parallelism 1 and 4 yields byte-identical tables. (Runs under -race, this
// also exercises the fan-out for data races.)
func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs controller sweeps; not -short")
	}
	for _, id := range []string{"table2", "fig5", "ablation-interval"} {
		d, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		render := func(parallel int) string {
			res, err := d.Run(RunConfig{Seed: 42, Quick: true, Parallel: parallel})
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", id, parallel, err)
			}
			var b strings.Builder
			res.Fprint(&b)
			return b.String()
		}
		if seq, par := render(1), render(4); seq != par {
			t.Errorf("%s renders differently at parallel 1 vs 4:\n--- seq ---\n%s\n--- par ---\n%s", id, seq, par)
		}
	}
}
