package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestShadeBuckets(t *testing.T) {
	cases := map[float64]rune{
		0:    ' ',
		0.1:  ' ',
		0.25: '░',
		0.45: '▒',
		0.65: '▓',
		0.85: '█',
		1:    '█',
	}
	for v, want := range cases {
		if got := Shade(v); got != want {
			t.Errorf("Shade(%g) = %q, want %q", v, got, want)
		}
	}
	if Shade(math.NaN()) != '?' {
		t.Error("NaN shade")
	}
	if Shade(-1) != ' ' || Shade(2) != '█' {
		t.Error("clamping broken")
	}
}

func TestShadeMonotone(t *testing.T) {
	rank := func(r rune) int {
		for i, s := range shades {
			if s == r {
				return i
			}
		}
		return -1
	}
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%1001) / 1000
		b := float64(bRaw%1001) / 1000
		if a > b {
			a, b = b, a
		}
		return rank(Shade(a)) <= rank(Shade(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeatmapLayout(t *testing.T) {
	out := Heatmap("title", []string{"r1", "r2"}, []string{"4", "20"},
		[][]float64{{0.1, 0.9}, {0.5, 0.0}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, 2 rows, legend
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "title") {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[2], "r1") || !strings.Contains(lines[3], "r2") {
		t.Errorf("row labels missing:\n%s", out)
	}
	// Cell glyphs doubled: r1 row should contain two '█' for 0.9.
	if !strings.Contains(lines[2], "██") {
		t.Errorf("high cell not dark:\n%s", out)
	}
	if !strings.Contains(lines[4], "legend:") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1, math.NaN()})
	runes := []rune(s)
	if len(runes) != 4 {
		t.Fatalf("len = %d", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' || runes[3] != ' ' {
		t.Errorf("sparkline = %q", s)
	}
	if Spark(0.5) == Spark(1.0) {
		t.Error("mid and max map to the same glyph")
	}
}

func TestTableRenderingAlignsRunes(t *testing.T) {
	tab := Table{
		Columns: []string{"app", "E_S"},
	}
	tab.AddRow("café-détour", "0.1") // 11 runes, 13 bytes
	tab.AddRow("plain-ascii", "0.2") // 11 runes, 11 bytes
	var b strings.Builder
	tab.Fprint(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	// Both data rows pad the first column to the same rune width, so the
	// second column starts at the same rune offset in every row.
	var offsets []int
	for _, line := range lines[2:] {
		idx := strings.Index(line, "0.")
		if idx < 0 {
			t.Fatalf("row %q missing value cell", line)
		}
		offsets = append(offsets, len([]rune(line[:idx])))
	}
	if offsets[0] != offsets[1] {
		t.Errorf("value column misaligned: rune offsets %v\n%s", offsets, b.String())
	}
	if !strings.Contains(fmt.Sprint(lines), "café-détour") {
		t.Error("non-ASCII cell lost")
	}
}
