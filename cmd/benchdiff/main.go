// Command benchdiff compares two counterbench -json reports and prints
// per-benchmark deltas for every timing cell the two runs share. It is
// the trajectory tool behind the checked-in BENCH_<n>.json files: run it
// against the previous snapshot to see what a change did to the
// experiment suite.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 0.25 old.json new.json   # custom warn bar
//	benchdiff -fail old.json new.json             # exit 1 on regressions
//
// Reports are joined per (benchmark, GOMAXPROCS) pair: a counterbench/v2
// report carries one run per swept proc count, and each shared proc
// count is diffed against its counterpart — never against a run at a
// different proc count. Proc counts present on only one side are listed
// explicitly, with the experiments they carry, so a shrunken sweep is
// visible rather than silently dropped. When two or more proc counts are
// shared, benchdiff also compares each benchmark's *scaling curve* —
// its slowdown at p procs relative to the lowest shared proc count — and
// flags rows whose curve got steeper, which catches a change that keeps
// single-proc speed but loses it under contention. Older counterbench/v1
// reports (BENCH_1 through BENCH_5) load as a single-run sweep at their
// recorded GOMAXPROCS, with the legacy "(GOMAXPROCS=N)" table-title
// decoration stripped so their tables still pair with v2 titles.
//
// Within a table, rows are matched by the row's identity cells
// (implementation names, sizes — anything that is not a measured
// quantity), so reordered rows diff cleanly and rows present on only
// one side (an added or a deleted design) are listed. Timing cells are
// parsed back from the harness's human format ("417ns", "97.9µs",
// "7.94ms", "1.234s"). Ratio and rate cells are derived quantities and
// are skipped. By default regressions beyond the threshold are warnings,
// not failures: single-run experiment timings are noisy, and the CI
// bench-smoke job runs quick mode on shared runners.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// report is the normalized in-memory form of either schema: a sweep of
// runs, one per GOMAXPROCS value. v1 files load as a one-run sweep.
type report struct {
	Schema string
	Quick  bool
	Runs   []run
}

type run struct {
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Experiments []experiment `json:"experiments"`
}

type experiment struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Tables []table `json:"tables"`
}

type table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// rawReport is the union of the v1 (flat experiments + gomaxprocs) and
// v2 (runs) JSON layouts; load normalizes it.
type rawReport struct {
	Schema      string       `json:"schema"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Quick       bool         `json:"quick"`
	Runs        []run        `json:"runs"`
	Experiments []experiment `json:"experiments"`
}

func main() {
	var (
		threshold = flag.Float64("threshold", 0.25, "relative slowdown above which a WARN is printed")
		fail      = flag.Bool("fail", false, "exit nonzero if any cell regresses beyond the threshold")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.25] [-fail] old.json new.json")
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	regressions := compare(oldRep, newRep, *threshold)
	if regressions > 0 {
		fmt.Printf("\n%d cell(s) regressed beyond %.0f%%\n", regressions, *threshold*100)
		if *fail {
			os.Exit(1)
		}
	}
}

func load(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw rawReport
	if err := json.Unmarshal(buf, &raw); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	r := &report{Schema: raw.Schema, Quick: raw.Quick}
	switch raw.Schema {
	case "counterbench/v1":
		procs := raw.GOMAXPROCS
		if procs == 0 {
			procs = 1
		}
		r.Runs = []run{{GOMAXPROCS: procs, Experiments: raw.Experiments}}
	case "counterbench/v2":
		r.Runs = raw.Runs
	default:
		return nil, fmt.Errorf("%s: schema %q is neither %q nor %q — the report was written by an incompatible counterbench version and cannot be compared", path, raw.Schema, "counterbench/v1", "counterbench/v2")
	}
	sort.Slice(r.Runs, func(i, j int) bool { return r.Runs[i].GOMAXPROCS < r.Runs[j].GOMAXPROCS })
	for ri := range r.Runs {
		for ei := range r.Runs[ri].Experiments {
			for ti := range r.Runs[ri].Experiments[ei].Tables {
				t := &r.Runs[ri].Experiments[ei].Tables[ti]
				t.Title = normalizeTitle(t.Title)
			}
		}
	}
	return r, nil
}

// v1-era table titles embedded the run's GOMAXPROCS; v2 tags the proc
// count on the run instead, so the decoration is stripped at load time
// to keep BENCH_1..BENCH_5 tables pairing with their v2 successors.
var (
	legacyProcsAlone = regexp.MustCompile(` \(GOMAXPROCS=\d+\)`)
	legacyProcsFirst = regexp.MustCompile(`\(GOMAXPROCS=\d+, `)
)

func normalizeTitle(s string) string {
	s = legacyProcsAlone.ReplaceAllString(s, "")
	return legacyProcsFirst.ReplaceAllString(s, "(")
}

// procs returns the sorted GOMAXPROCS values a report swept.
func (r *report) procs() []int {
	out := make([]int, 0, len(r.Runs))
	for _, rn := range r.Runs {
		out = append(out, rn.GOMAXPROCS)
	}
	return out
}

// runFor returns the experiments recorded at one proc count, or nil.
func (r *report) runFor(p int) []experiment {
	for _, rn := range r.Runs {
		if rn.GOMAXPROCS == p {
			return rn.Experiments
		}
	}
	return nil
}

// compare joins the two reports per (benchmark, GOMAXPROCS) pair, prints
// all deltas plus the scaling comparison, and returns the total number
// of cells that regressed beyond the threshold.
func compare(oldRep, newRep *report, threshold float64) int {
	if oldRep.Quick != newRep.Quick {
		fmt.Printf("note: comparing quick=%v against quick=%v — sizes differ, deltas are not meaningful\n",
			oldRep.Quick, newRep.Quick)
	}
	shared := sharedProcs(oldRep, newRep)
	reportProcMismatch(oldRep, newRep, shared)
	if len(shared) == 0 {
		fmt.Printf("no shared GOMAXPROCS values: old swept %s, new swept %s — nothing to compare\n",
			procList(oldRep.procs()), procList(newRep.procs()))
		return 0
	}
	regressions := 0
	multi := len(shared) > 1
	for _, p := range shared {
		if multi {
			fmt.Printf("== GOMAXPROCS=%d ==\n", p)
		}
		regressions += diff(oldRep.runFor(p), newRep.runFor(p), threshold)
	}
	if multi {
		regressions += diffScaling(oldRep, newRep, shared, threshold)
	}
	return regressions
}

func sharedProcs(oldRep, newRep *report) []int {
	var out []int
	for _, p := range oldRep.procs() {
		if newRep.runFor(p) != nil {
			out = append(out, p)
		}
	}
	return out
}

// reportProcMismatch lists every proc count present on only one side,
// together with the experiments recorded there — that data has no
// counterpart and is excluded from the comparison, and saying which
// benchmarks it carried is what makes a shrunken sweep reviewable.
func reportProcMismatch(oldRep, newRep *report, shared []int) {
	oldP, newP := oldRep.procs(), newRep.procs()
	if len(shared) == len(oldP) && len(shared) == len(newP) {
		return
	}
	fmt.Printf("GOMAXPROCS sets differ: old swept %s, new swept %s\n", procList(oldP), procList(newP))
	side := func(name string, r *report, other *report) {
		for _, p := range r.procs() {
			if other.runFor(p) != nil {
				continue
			}
			fmt.Printf("  GOMAXPROCS=%d: only in %s report — experiments %s excluded from comparison\n",
				p, name, expIDs(r.runFor(p)))
		}
	}
	side("old", oldRep, newRep)
	side("new", newRep, oldRep)
}

func procList(ps []int) string {
	if len(ps) == 0 {
		return "none"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

// diff walks every table the two runs share and prints the timing
// deltas. It returns the number of cells that regressed beyond the
// threshold.
func diff(oldExps, newExps []experiment, threshold float64) int {
	oldTables := index(oldExps)
	shared := 0
	for _, e := range newExps {
		for _, nt := range e.Tables {
			if _, ok := oldTables[e.ID+"\x00"+nt.Title]; ok {
				shared++
			}
		}
	}
	if shared == 0 {
		fmt.Printf("no shared benchmarks: old run has %s, new run has %s — nothing to compare\n",
			expIDs(oldExps), expIDs(newExps))
		return 0
	}
	regressions := 0
	for _, e := range newExps {
		for _, nt := range e.Tables {
			key := e.ID + "\x00" + nt.Title
			ot, ok := oldTables[key]
			if !ok {
				fmt.Printf("%s %q: only in new report\n", e.ID, nt.Title)
				continue
			}
			regressions += diffTable(e.ID, ot, nt, threshold)
		}
	}
	newKeys := make(map[string]bool)
	for _, e := range newExps {
		for _, t := range e.Tables {
			newKeys[e.ID+"\x00"+t.Title] = true
		}
	}
	for _, e := range oldExps {
		for _, t := range e.Tables {
			if !newKeys[e.ID+"\x00"+t.Title] {
				fmt.Printf("%s %q: only in old report\n", e.ID, t.Title)
			}
		}
	}
	return regressions
}

// expIDs summarizes a run as its experiment ID list.
func expIDs(exps []experiment) string {
	if len(exps) == 0 {
		return "no experiments"
	}
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ",")
}

func index(exps []experiment) map[string]table {
	m := make(map[string]table)
	for _, e := range exps {
		for _, t := range e.Tables {
			m[e.ID+"\x00"+t.Title] = t
		}
	}
	return m
}

func diffTable(expID string, oldT, newT table, threshold float64) int {
	oldRows := make(map[string][]string)
	for _, row := range oldT.Rows {
		oldRows[rowKey(row)] = row
	}
	regressions := 0
	printedHeader := false
	header := func() {
		if !printedHeader {
			fmt.Printf("%s %q\n", expID, newT.Title)
			printedHeader = true
		}
	}
	newRows := make(map[string]bool)
	for _, row := range newT.Rows {
		newRows[rowKey(row)] = true
		oldRow, ok := oldRows[rowKey(row)]
		if !ok {
			header()
			fmt.Printf("  %s: row only in new report\n", rowKey(row))
			continue
		}
		for i, cell := range row {
			if i >= len(oldRow) {
				break
			}
			newNs, ok1 := parseDur(cell)
			oldNs, ok2 := parseDur(oldRow[i])
			if !ok1 || !ok2 || oldNs == 0 {
				continue
			}
			delta := (newNs - oldNs) / oldNs
			col := ""
			if i < len(newT.Headers) {
				col = newT.Headers[i]
			}
			header()
			mark := ""
			if delta > threshold {
				mark = "  WARN: regression"
				regressions++
			}
			fmt.Printf("  %-40s %10s -> %-10s %+6.1f%%%s\n",
				rowKey(row)+" ["+col+"]", oldRow[i], cell, delta*100, mark)
		}
	}
	for _, row := range oldT.Rows {
		if !newRows[rowKey(row)] {
			header()
			fmt.Printf("  %s: row only in old report\n", rowKey(row))
		}
	}
	return regressions
}

// cellKey identifies one timing cell across a sweep: which experiment,
// table, row, and column it sits in. The GOMAXPROCS dimension is the
// curve's x axis and deliberately not part of the key.
type cellKey struct {
	exp, title, row, col string
}

// curves collects, for every timing cell, its duration at each of the
// given proc counts.
func curves(r *report, procs []int) map[cellKey]map[int]float64 {
	out := make(map[cellKey]map[int]float64)
	for _, p := range procs {
		for _, e := range r.runFor(p) {
			for _, t := range e.Tables {
				for _, row := range t.Rows {
					for i, cell := range row {
						ns, ok := parseDur(cell)
						if !ok || ns <= 0 {
							continue
						}
						col := ""
						if i < len(t.Headers) {
							col = t.Headers[i]
						}
						k := cellKey{exp: e.ID, title: t.Title, row: rowKey(row), col: col}
						if out[k] == nil {
							out[k] = make(map[int]float64)
						}
						out[k][p] = ns
					}
				}
			}
		}
	}
	return out
}

// diffScaling compares each benchmark's scaling curve between the two
// reports: its slowdown at p procs relative to the lowest shared proc
// count. A row whose new curve is steeper than its old curve by more
// than the threshold regressed in *scaling* even if every absolute
// duration improved — the per-core comparison is what absolute diffs at
// a single proc count cannot see.
func diffScaling(oldRep, newRep *report, shared []int, threshold float64) int {
	base := shared[0]
	oldC := curves(oldRep, shared)
	newC := curves(newRep, shared)

	keys := make([]cellKey, 0, len(newC))
	for k := range newC {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.exp != b.exp {
			return a.exp < b.exp
		}
		if a.title != b.title {
			return a.title < b.title
		}
		if a.row != b.row {
			return a.row < b.row
		}
		return a.col < b.col
	})

	regressions := 0
	printedHeader := false
	header := func() {
		if !printedHeader {
			fmt.Printf("== scaling (slowdown vs GOMAXPROCS=%d) ==\n", base)
			printedHeader = true
		}
	}
	for _, k := range keys {
		nc, oc := newC[k], oldC[k]
		if oc == nil || nc[base] == 0 || oc[base] == 0 {
			continue
		}
		for _, p := range shared[1:] {
			if nc[p] == 0 || oc[p] == 0 {
				continue
			}
			oldRatio := oc[p] / oc[base]
			newRatio := nc[p] / nc[base]
			delta := (newRatio - oldRatio) / oldRatio
			mark := ""
			if delta > threshold {
				mark = "  WARN: scaling regression"
				regressions++
			}
			header()
			fmt.Printf("  %s %q %-32s p=%d: %.2fx -> %.2fx %+6.1f%%%s\n",
				k.exp, k.title, k.row+" ["+k.col+"]", p, oldRatio, newRatio, delta*100, mark)
		}
	}
	return regressions
}

// rowKey joins a row's identity cells: everything that is not a measured
// quantity (timing, ratio, or rate). Implementation names and problem
// sizes survive, so rows pair up even if the tables were reordered or
// extended between runs.
func rowKey(row []string) string {
	var parts []string
	for _, cell := range row {
		if _, ok := parseDur(cell); ok {
			continue
		}
		if isDerived(cell) {
			continue
		}
		parts = append(parts, cell)
	}
	return strings.Join(parts, "/")
}

// parseDur parses the harness's human duration format back into
// nanoseconds: "417ns", "97.9µs" (or "us"), "7.94ms", "1.234s".
func parseDur(s string) (float64, bool) {
	var unit float64
	var num string
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, num = 1, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "µs"):
		unit, num = 1e3, strings.TrimSuffix(s, "µs")
	case strings.HasSuffix(s, "us"):
		unit, num = 1e3, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		unit, num = 1e6, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		unit, num = 1e9, strings.TrimSuffix(s, "s")
	default:
		return 0, false
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v * unit, true
}

// isDerived reports whether a cell is a derived quantity that should be
// neither compared nor used as row identity: speedup ratios ("2.31x",
// "inf") and rates ("48.38M/s", "12.3M ops/s").
func isDerived(s string) bool {
	if s == "inf" {
		return true
	}
	if strings.HasSuffix(s, "/s") {
		return true
	}
	if strings.HasSuffix(s, "x") {
		if _, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64); err == nil {
			return true
		}
	}
	return false
}
