package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a -results file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spread this tool prints is the one the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// verdict applies one metric's bound to two sets of runs. Each side is
// summarized by its median; a side whose own runs spread wider than the
// bound cannot resolve a difference of that size.
func verdict(spec metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	ma, mb := median(a), median(b)
	if spreadShare(a) > spec.Bound || spreadShare(b) > spec.Bound {
		return "unresolved"
	}
	change := ratio(mb-ma, ma)
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case change > spec.Bound:
		return "worse"
	case change < -spec.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result sets taken with -results and reports whether any row is worse.
// Traced records carry no end-to-end metrics and are skipped.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	load := func(path string) (map[string]map[string][]float64, error) {
		recs, err := readRecords(path)
		if err != nil {
			return nil, err
		}
		by := make(map[string]map[string][]float64)
		for _, r := range recs {
			if r.Stamp.Trace {
				continue
			}
			if by[r.Stamp.Workload] == nil {
				by[r.Stamp.Workload] = make(map[string][]float64)
			}
			for name, v := range r.Metrics {
				by[r.Stamp.Workload][name] = append(by[r.Stamp.Workload][name], v.Value)
			}
		}
		return by, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	// Declared order; a workload only one side ran still gets its rows.
	var names []string
	for _, wl := range workloads {
		if a[wl.Name] != nil || b[wl.Name] != nil {
			names = append(names, wl.Name)
		}
	}

	anyWorse := false
	fmt.Fprintf(w, "%-15s %-26s %5s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A iqr", "B median", "B iqr", "change", "bound", "verdict")
	for _, wl := range names {
		for _, spec := range endToEnd {
			va, vb := a[wl][spec.Name], b[wl][spec.Name]
			v := verdict(spec, va, vb)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-15s %-26s %2d/%-2d %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl, spec.Name, len(va), len(vb),
				median(va), 100*spreadShare(va), median(vb), 100*spreadShare(vb),
				100*ratio(median(vb)-median(va), median(va)), 100*spec.Bound, v)
		}
	}
	return anyWorse, nil
}
