package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseDur(t *testing.T) {
	cases := []struct {
		in string
		ns float64
		ok bool
	}{
		{"417ns", 417, true},
		{"97.9µs", 97_900, true},
		{"97.9us", 97_900, true},
		{"7.94ms", 7_940_000, true},
		{"1.234s", 1_234_000_000, true},
		{"list", 0, false},
		{"10000", 0, false},
		{"2.31x", 0, false},
		{"", 0, false},
		{"ms", 0, false},
		{"-5ms", 0, false},
	}
	for _, c := range cases {
		got, ok := parseDur(c.in)
		if ok != c.ok || (ok && got != c.ns) {
			t.Errorf("parseDur(%q) = %v, %v; want %v, %v", c.in, got, ok, c.ns, c.ok)
		}
	}
}

func TestRowKeySkipsMeasuredCells(t *testing.T) {
	row := []string{"list", "10000", "7.94ms", "2.31x", "12.3M ops/s"}
	if got, want := rowKey(row), "list/10000"; got != want {
		t.Errorf("rowKey = %q, want %q", got, want)
	}
}

func writeReport(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRejectsUnknownSchema(t *testing.T) {
	path := writeReport(t, "future.json", `{"schema":"counterbench/v9"}`)
	_, err := load(path)
	if err == nil {
		t.Fatal("load accepted a report with an unknown schema version")
	}
	msg := err.Error()
	if strings.Contains(msg, "\n") {
		t.Errorf("schema-mismatch message spans multiple lines: %q", msg)
	}
	if !strings.Contains(msg, "counterbench/v9") ||
		!strings.Contains(msg, "counterbench/v1") || !strings.Contains(msg, "counterbench/v2") {
		t.Errorf("message %q does not name the found schema and both accepted schemas", msg)
	}
}

// A v1 file — the flat layout of BENCH_1..BENCH_5 — must load as a
// one-run sweep at its recorded GOMAXPROCS, with the legacy title
// decorations stripped so its tables pair with v2 successors.
func TestLoadNormalizesV1(t *testing.T) {
	path := writeReport(t, "old.json", `{
		"schema": "counterbench/v1",
		"gomaxprocs": 1,
		"experiments": [{
			"id": "E19",
			"tables": [
				{"title": "No waiters: storm (GOMAXPROCS=1)", "rows": [["list", "4.00ms"]]},
				{"title": "Round trip (GOMAXPROCS=1, reps=2000)", "rows": [["local", "9.00µs"]]}
			]
		}]
	}`)
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.procs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("procs = %v, want [1]", got)
	}
	exps := r.runFor(1)
	if len(exps) != 1 || len(exps[0].Tables) != 2 {
		t.Fatalf("runFor(1) = %+v, want one experiment with two tables", exps)
	}
	if got, want := exps[0].Tables[0].Title, "No waiters: storm"; got != want {
		t.Errorf("title = %q, want %q (legacy GOMAXPROCS suffix stripped)", got, want)
	}
	if got, want := exps[0].Tables[1].Title, "Round trip (reps=2000)"; got != want {
		t.Errorf("title = %q, want %q (legacy GOMAXPROCS prefix stripped)", got, want)
	}
}

func TestLoadV2Sweep(t *testing.T) {
	path := writeReport(t, "new.json", `{
		"schema": "counterbench/v2",
		"procs": [1, 4, 2],
		"runs": [
			{"gomaxprocs": 4, "experiments": [{"id": "E19"}]},
			{"gomaxprocs": 1, "experiments": [{"id": "E19"}]},
			{"gomaxprocs": 2, "experiments": [{"id": "E19"}]}
		]
	}`)
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.procs(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("procs = %v, want [1 2 4] (sorted)", got)
	}
	if r.runFor(3) != nil {
		t.Error("runFor(3) found a run that was never swept")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	f()
	w.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestDiffNoSharedBenchmarks(t *testing.T) {
	oldExps := []experiment{
		{ID: "E10", Tables: []table{{Title: "Reference", Rows: [][]string{{"list", "4.00ms"}}}}},
		{ID: "E12", Tables: []table{{Title: "Baseline", Rows: [][]string{{"bcast", "9.00ms"}}}}},
	}
	newExps := []experiment{
		{ID: "E21", Tables: []table{{Title: "Overhead", Rows: [][]string{{"list", "25ns"}}}}},
	}
	var regressions int
	out := captureStdout(t, func() { regressions = diff(oldExps, newExps, 0.25) })
	if regressions != 0 {
		t.Errorf("regressions = %d, want 0 with nothing shared", regressions)
	}
	out = strings.TrimRight(out, "\n")
	if strings.Contains(out, "\n") {
		t.Errorf("no-shared-benchmarks output is not a single line:\n%s", out)
	}
	if !strings.Contains(out, "no shared benchmarks") ||
		!strings.Contains(out, "E10,E12") || !strings.Contains(out, "E21") {
		t.Errorf("output %q does not announce the disjoint experiment sets", out)
	}
}

func TestDiffTableFlagsRegression(t *testing.T) {
	oldT := table{
		Title:   "Single level",
		Headers: []string{"impl", "N", "time"},
		Rows:    [][]string{{"list", "10000", "4.00ms"}},
	}
	newT := table{
		Title:   "Single level",
		Headers: []string{"impl", "N", "time"},
		Rows:    [][]string{{"list", "10000", "6.00ms"}},
	}
	if got := diffTable("E20", oldT, newT, 0.25); got != 1 {
		t.Errorf("regressions = %d, want 1", got)
	}
	if got := diffTable("E20", oldT, newT, 0.60); got != 0 {
		t.Errorf("regressions with loose threshold = %d, want 0", got)
	}
}

// Rows present on only one side are reported from both sides: a design
// deleted between two reports must not vanish from the diff silently.
func TestDiffTableReportsOneSidedRows(t *testing.T) {
	oldT := table{
		Title:   "Mixed workload",
		Headers: []string{"implementation", "median"},
		Rows:    [][]string{{"list", "4.00ms"}, {"heap", "4.10ms"}},
	}
	newT := table{
		Title:   "Mixed workload",
		Headers: []string{"implementation", "median"},
		Rows:    [][]string{{"list", "4.00ms"}, {"sharded", "3.90ms"}},
	}
	out := captureStdout(t, func() { diffTable("E11", oldT, newT, 0.25) })
	for _, want := range []string{"heap: row only in old report", "sharded: row only in new report"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// sweep builds a report with one E19 table per proc, timing cell taken
// from ns[proc].
func sweep(quick bool, ns map[int]string) *report {
	r := &report{Schema: "counterbench/v2", Quick: quick}
	procs := make([]int, 0, len(ns))
	for p := range ns {
		procs = append(procs, p)
	}
	for i := range procs { // insertion sort; tiny
		for j := i; j > 0 && procs[j] < procs[j-1]; j-- {
			procs[j], procs[j-1] = procs[j-1], procs[j]
		}
	}
	for _, p := range procs {
		r.Runs = append(r.Runs, run{GOMAXPROCS: p, Experiments: []experiment{{
			ID: "E19",
			Tables: []table{{
				Title:   "No waiters: storm",
				Headers: []string{"implementation", "median"},
				Rows:    [][]string{{"list", ns[p]}},
			}},
		}}})
	}
	return r
}

// A proc count present on only one side must be called out with the
// experiments it carried — shrinking the sweep may not pass silently.
func TestCompareReportsProcSetMismatch(t *testing.T) {
	oldRep := sweep(false, map[int]string{1: "4.00ms", 2: "5.00ms", 4: "6.00ms"})
	newRep := sweep(false, map[int]string{1: "4.00ms", 2: "5.00ms", 8: "9.00ms"})
	var regressions int
	out := captureStdout(t, func() { regressions = compare(oldRep, newRep, 0.25) })
	if regressions != 0 {
		t.Errorf("regressions = %d, want 0 (identical shared cells)", regressions)
	}
	if !strings.Contains(out, "GOMAXPROCS sets differ") {
		t.Errorf("output does not announce the differing proc sets:\n%s", out)
	}
	if !strings.Contains(out, "GOMAXPROCS=4: only in old report — experiments E19 excluded") {
		t.Errorf("output does not name the old-only proc count and its experiments:\n%s", out)
	}
	if !strings.Contains(out, "GOMAXPROCS=8: only in new report — experiments E19 excluded") {
		t.Errorf("output does not name the new-only proc count and its experiments:\n%s", out)
	}
	// The shared procs must still be diffed, per proc.
	if !strings.Contains(out, "== GOMAXPROCS=1 ==") || !strings.Contains(out, "== GOMAXPROCS=2 ==") {
		t.Errorf("shared proc counts were not each diffed:\n%s", out)
	}
}

func TestCompareNoSharedProcs(t *testing.T) {
	oldRep := sweep(false, map[int]string{1: "4.00ms"})
	newRep := sweep(false, map[int]string{2: "4.00ms"})
	var regressions int
	out := captureStdout(t, func() { regressions = compare(oldRep, newRep, 0.25) })
	if regressions != 0 {
		t.Errorf("regressions = %d, want 0", regressions)
	}
	if !strings.Contains(out, "no shared GOMAXPROCS values") ||
		!strings.Contains(out, "old swept 1") || !strings.Contains(out, "new swept 2") {
		t.Errorf("output %q does not report the disjoint proc sets per side", out)
	}
}

// The per-core join: a benchmark that keeps its single-proc time but
// gets steeper with procs is a scaling regression, flagged even though
// no absolute cell crossed the threshold at its own proc count... the
// 2-proc cell here is also an absolute regression, so the scaling WARN
// must come on top of it.
func TestCompareFlagsScalingRegression(t *testing.T) {
	oldRep := sweep(false, map[int]string{1: "4.00ms", 2: "4.40ms"}) // 1.10x at p=2
	newRep := sweep(false, map[int]string{1: "4.00ms", 2: "6.40ms"}) // 1.60x at p=2
	var regressions int
	out := captureStdout(t, func() { regressions = compare(oldRep, newRep, 0.25) })
	if !strings.Contains(out, "WARN: scaling regression") {
		t.Errorf("scaling regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "scaling (slowdown vs GOMAXPROCS=1)") {
		t.Errorf("scaling section missing or mislabeled:\n%s", out)
	}
	// One absolute regression (the 2-proc cell) + one scaling regression.
	if regressions != 2 {
		t.Errorf("regressions = %d, want 2 (absolute + scaling)", regressions)
	}

	// Uniform slowdown at every proc count: absolute regressions at each
	// proc, but the curve's shape is unchanged — no scaling WARN.
	uniform := sweep(false, map[int]string{1: "8.00ms", 2: "8.80ms"})
	out = captureStdout(t, func() { regressions = compare(oldRep, uniform, 0.25) })
	if strings.Contains(out, "WARN: scaling regression") {
		t.Errorf("uniform slowdown flagged as scaling regression:\n%s", out)
	}
	if regressions != 2 {
		t.Errorf("uniform slowdown: regressions = %d, want 2 (one absolute per proc)", regressions)
	}
}
