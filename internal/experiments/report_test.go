package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"autarky/internal/libos"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("Geomean = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("empty Geomean = %v", g)
	}
	if g := Geomean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("unit Geomean = %v", g)
	}
}

func TestGeomeanNonPositiveInputs(t *testing.T) {
	// The geometric mean is undefined at or below zero; the contract is a
	// plain 0, never -Inf or NaN leaking into reports.
	cases := [][]float64{
		{0},
		{4, 0, 9},
		{-1},
		{2, -8},
		{math.NaN()},
		{1, math.NaN(), 3},
	}
	for _, xs := range cases {
		g := Geomean(xs)
		if g != 0 {
			t.Errorf("Geomean(%v) = %v, want 0", xs, g)
		}
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Errorf("Geomean(%v) produced non-finite %v", xs, g)
		}
	}
	// A tiny positive value is legitimate and must not be zeroed.
	if g := Geomean([]float64{1e-300, 1e-300}); g <= 0 {
		t.Errorf("Geomean(tiny) = %v, want > 0", g)
	}
}

func TestPerSecondEdgeCases(t *testing.T) {
	if r := PerSecond(0, uint64(ClockHz)); r != 0 {
		t.Fatalf("PerSecond(0, 3e9) = %v", r)
	}
	if r := PerSecond(0, 0); r != 0 {
		t.Fatalf("PerSecond(0, 0) = %v", r)
	}
	r := PerSecond(^uint64(0), 1)
	if math.IsNaN(r) || math.IsInf(r, 0) {
		t.Fatalf("PerSecond(max, 1) non-finite: %v", r)
	}
}

func TestSecondsAndRates(t *testing.T) {
	if s := Seconds(uint64(ClockHz)); math.Abs(s-1) > 1e-9 {
		t.Fatalf("Seconds = %v", s)
	}
	if r := PerSecond(100, uint64(ClockHz)); math.Abs(r-100) > 1e-6 {
		t.Fatalf("PerSecond = %v", r)
	}
	if r := PerSecond(100, 0); r != 0 {
		t.Fatalf("PerSecond with zero cycles = %v", r)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.82); got != "-18.0%" {
		t.Fatalf("Pct(0.82) = %q", got)
	}
	if got := Pct(1.05); got != "+5.0%" {
		t.Fatalf("Pct(1.05) = %q", got)
	}
}

func TestFFormatting(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		12345:  "12345",
		42.5:   "42.5",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col-a", "b"},
	}
	tab.AddRow("x", "123456")
	tab.AddRow("longer-cell", "1")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== demo ==", "a note", "col-a", "longer-cell", "123456"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Columns align: header and rows share the first column width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var hdr, row string
	for _, l := range lines {
		if strings.Contains(l, "col-a") {
			hdr = l
		}
		if strings.Contains(l, "longer-cell") {
			row = l
		}
	}
	if strings.Index(hdr, "b") <= 0 || strings.Index(row, "1") <= 0 {
		t.Fatalf("unexpected layout:\n%s", out)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col-a", "b"},
	}
	tab.AddRow("x", "123456")
	tab.AddRow("longer-cell", "1")
	rep := &Report{}
	rep.Add(tab)
	rep.Add(&Table{Title: "empty", Header: []string{"h"}})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(back.Tables) != 2 {
		t.Fatalf("%d tables after round trip", len(back.Tables))
	}
	if !reflect.DeepEqual(back.Tables[0], tab) {
		t.Fatalf("table did not survive the round trip:\n got %+v\nwant %+v", back.Tables[0], tab)
	}
	if back.Tables[1].Note != "" {
		t.Fatalf("empty note not omitted/restored: %+v", back.Tables[1])
	}

	// Single-table form.
	buf.Reset()
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var one Table
	if err := json.Unmarshal(buf.Bytes(), &one); err != nil {
		t.Fatalf("table JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(&one, tab) {
		t.Fatalf("single table round trip:\n got %+v\nwant %+v", &one, tab)
	}
}

func TestRunConfigLabels(t *testing.T) {
	if (RunConfig{}).label() != "vanilla" {
		t.Fatal("vanilla label")
	}
	rc := RunConfig{Config: libos.Config{SelfPaging: true}}
	if !strings.HasPrefix(rc.label(), "autarky/") {
		t.Fatalf("label %q", rc.label())
	}
	rc.ElideAEX = true
	if !strings.Contains(rc.label(), "noAEX") {
		t.Fatalf("label %q", rc.label())
	}
}

func TestAllTablesRender(t *testing.T) {
	// Every experiment's Table() must render without panicking; use the
	// cheapest parameterizations.
	var sb strings.Builder
	RunE2(2).Table().Fprint(&sb)
	RunE9().Table().Fprint(&sb)
	RunE8(2).Table().Fprint(&sb)
	if sb.Len() == 0 {
		t.Fatal("no table output")
	}
}
