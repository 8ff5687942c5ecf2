package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// verdictRow is one workload × end-to-end metric of a comparison.
type verdictRow struct {
	workload string
	def      metricDef
	base     stats
	head     stats
	wins     int
	pairs    int
	verdict  string
}

// judge applies the comparison rule to paired runs of one metric (run i
// of base pairs with run i of head; the runs should alternate sides):
//   - improved: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither side), and the medians differ in
//     the better direction by more than the base's quartile spread;
//   - unresolved: the base's quartile spread exceeds the metric's bound,
//     unless every head run reads better than every base run;
//   - regressed: the head median is worse than the base median by more
//     than the bound;
//   - within-bound otherwise.
func judge(def metricDef, base, head []float64) verdictRow {
	row := verdictRow{def: def, base: summarize(base), head: summarize(head),
		pairs: min(len(base), len(head))}
	better := func(h, b float64) bool {
		if def.better == "higher" {
			return h > b
		}
		return h < b
	}
	for i := 0; i < row.pairs; i++ {
		if better(head[i], base[i]) {
			row.wins++
		}
	}
	iqr := row.base.Q3 - row.base.Q1
	worse := ratio(row.head.Median-row.base.Median, row.base.Median)
	if def.better == "higher" {
		worse = -worse
	}
	allBetter := len(head) > 0 && len(base) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case row.pairs >= 10 && row.wins*10 >= row.pairs*9 &&
		math.Abs(row.head.Median-row.base.Median) > iqr && better(row.head.Median, row.base.Median):
		row.verdict = "improved"
	case ratio(iqr, row.base.Median) > def.bound && !allBetter:
		row.verdict = "unresolved"
	case worse > def.bound:
		row.verdict = "regressed"
	default:
		row.verdict = "within-bound"
	}
	return row
}

// compareRuns judges every workload × end-to-end metric present in both
// sets of untraced results.
func compareRuns(base, head []*result) []verdictRow {
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			if r.Trace == 0 {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	b, h := byWorkload(base), byWorkload(head)
	var rows []verdictRow
	for _, w := range workloads {
		if len(b[w.name]) == 0 || len(h[w.name]) == 0 {
			continue
		}
		for _, def := range endToEnd {
			values := func(rs []*result) []float64 {
				var xs []float64
				for _, r := range rs {
					if m, ok := r.Metrics[def.name]; ok {
						xs = append(xs, m.Value)
					}
				}
				return xs
			}
			bv, hv := values(b[w.name]), values(h[w.name])
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			row := judge(def, bv, hv)
			row.workload = w.name
			rows = append(rows, row)
		}
	}
	return rows
}

// runCompare is the -compare mode: base result files, "--", head result
// files. It exits 1 when any row regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare base.json... -- head.json...")
		return 2
	}
	base, err := loadResults(args[:i])
	if err == nil {
		var head []*result
		if head, err = loadResults(args[i+1:]); err == nil {
			return printComparison(compareRuns(base, head), stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: compare: %v\n", err)
	return 1
}

func loadResults(paths []string) ([]*result, error) {
	var rs []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &result{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

func printComparison(rows []verdictRow, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-7s %-10s %-34s %-34s %-24s %-6s %s\n",
		"load", "metric", "base median [q1 q3]", "head median [q1 q3]", "head/base of base", "wins", "verdict")
	for _, r := range rows {
		q := func(s stats) string {
			return fmt.Sprintf("%.4g [%.4g %.4g] %s", s.Median, s.Q1, s.Q3, r.def.unit)
		}
		fmt.Fprintf(w, "%-7s %-10s %-34s %-34s %-24s %-6s %s\n", r.workload, r.def.name, q(r.base), q(r.head),
			fmt.Sprintf("%.3f of %.4g %s", ratio(r.head.Median, r.base.Median), r.base.Median, r.def.unit),
			fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
		if r.verdict == "regressed" {
			code = 1
		}
	}
	return code
}
