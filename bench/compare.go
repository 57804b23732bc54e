package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords loads the untraced records of a -json file, grouped as
// workload → metric → values.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// runCompare prints one row per workload and end-to-end metric: the
// base (A) and candidate (B) medians and spreads, and a verdict under
// the metric's bound. A metric is unresolved when a side has fewer
// than two runs, or when either side's spread (interquartile range
// over median) is wider than the bound, unless every B run reads
// better than every A run; worse when B's median is
// worse by more than the bound; better when it is better by more than
// A's spread; within bound otherwise. It reports whether any row is
// worse.
func runCompare(specPath, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	worse := false
	fmt.Printf("%-14s %-13s %4s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "runs", "A median", "B median", "change", "A sprd", "B sprd", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sign := 1.0 // positive change means worse
			if m.Better == "higher" {
				sign = -1
			}
			change := sign * (mb - ma) / math.Abs(ma)
			sa, sb := spread(va), spread(vb)
			verdict := "within bound"
			switch {
			case len(va) < 2 || len(vb) < 2:
				verdict = "unresolved"
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
				if allBetter(va, vb, sign) {
					verdict = "better"
				}
			case change > m.Bound:
				verdict = "worse"
				worse = true
			case -change > sa && mostlyBetter(vb, ma, sign):
				verdict = "better"
			}
			fmt.Printf("%-14s %-13s %2d/%-2d %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				w, m.Name, len(va), len(vb), ma, mb, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return worse, nil
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// mostlyBetter reports whether most of b beats a's median: the
// better verdict needs the medians apart by more than a's spread and a
// clear majority of b's runs on the better side.
func mostlyBetter(b []float64, ma, sign float64) bool {
	wins := 0
	for _, y := range b {
		if sign*(y-ma) < 0 {
			wins++
		}
	}
	return float64(wins) >= 0.9*float64(len(b))
}
