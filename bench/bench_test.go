package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench compiles the benchmark into a temporary directory: the
// workloads re-execute their own binary, so they cannot run inside the
// test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runBench runs one workload at the quick size and returns its output
// lines, its result line and its exit code.
func runBench(t *testing.T, bin, workload string, extra ...string) ([]string, result, int) {
	t.Helper()
	args := append([]string{"-workload", workload, "-seed", "3", "-seconds", "1", "-quick", "-root", ".."}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	code := 0
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out)
	}
	return lines, res, code
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at the quick size and checks that each
// end-to-end metric of BENCHMARK.json is printed with its unit, and
// that no check fails.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	bin := buildBench(t)
	for _, w := range workloads {
		lines, res, code := runBench(t, bin, w.name)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: exit %d, correct %v, %d of %d checks failed", w.name, code, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: result metric %s = %+v, want a positive value in %s", w.name, m.Name, got, m.Unit)
			}
			printed := false
			for _, l := range lines {
				f := strings.Fields(l)
				printed = printed || len(f) >= 4 && f[0] == m.Name && f[2] == m.Unit && strings.HasPrefix(f[3], "n=")
			}
			if !printed {
				t.Errorf("%s: no printed line for %s with unit %s and sample count", w.name, m.Name, m.Unit)
			}
		}
	}
}

// TestFlippedExpectationsFail flips one program's expected verdict and
// one trace's reference signature: the runs must count the failures
// and exit non-zero, which shows that the checks bite, and still
// report every metric.
func TestFlippedExpectationsFail(t *testing.T) {
	spec := loadSpec(t)
	bin := buildBench(t)
	for _, w := range []string{"instrumented", "replay-sparse"} {
		_, res, code := runBench(t, bin, w, "-flip")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s -flip: exit %d, correct %v, %d failed; want the flipped expectation counted", w, code, res.Correct, res.Failed)
		}
		for _, m := range spec.EndToEnd {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s -flip: metric %s missing from the result", w, m.Name)
			}
		}
	}
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(xs, n=4), the method the benchmark is judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
