package instrument

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/sp/spsync"
)

// expectRe matches the committed verdict annotation every corpus
// program carries in its header comment.
var expectRe = regexp.MustCompile(`spinstrument:expect\s+(racy|clean)`)

// raceWarning is how `go run -race` announces a detected race.
const raceWarning = "WARNING: DATA RACE"

// cmdTimeout bounds every subprocess the harness spawns; the corpus
// programs finish in milliseconds, the budget is for cold compiles.
const cmdTimeout = 3 * time.Minute

// CorpusVerdict is the differential outcome for one corpus program:
// the committed expectation, what the instrumented run reported, and
// what the Go race detector said about the same source.
type CorpusVerdict struct {
	Program  string
	Expect   string // committed annotation: "racy" or "clean"
	SPRacy   bool   // instrumented-under-sp verdict
	RaceRacy bool   // `go run -race` verdict
	Report   *spsync.ReportJSON
}

// Agree reports whether both detectors match the committed expectation.
func (v *CorpusVerdict) Agree() bool {
	want := v.Expect == "racy"
	return v.SPRacy == want && v.RaceRacy == want
}

// CorpusPrograms lists the program directories under a corpus root.
func CorpusPrograms(corpusDir string) ([]string, error) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		return nil, err
	}
	var progs []string
	for _, e := range entries {
		if e.IsDir() {
			if _, err := os.Stat(filepath.Join(corpusDir, e.Name(), "main.go")); err == nil {
				progs = append(progs, e.Name())
			}
		}
	}
	sort.Strings(progs)
	return progs, nil
}

// ExpectedVerdict reads the committed annotation from a program's
// main.go.
func ExpectedVerdict(progDir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(progDir, "main.go"))
	if err != nil {
		return "", err
	}
	m := expectRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("instrument: %s: missing `// spinstrument:expect racy|clean` annotation", progDir)
	}
	return string(m[1]), nil
}

// PrepareProgram copies a corpus program into its own module under
// work, so both `go run -race` and the instrumenter see a hermetic
// stdlib-only module.
func PrepareProgram(progDir, work string) (string, error) {
	src := filepath.Join(work, "src")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(progDir)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(progDir, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(src, e.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	mod := "module corpusprog\n\ngo 1.24\n"
	if err := os.WriteFile(filepath.Join(src, "go.mod"), []byte(mod), 0o644); err != nil {
		return "", err
	}
	return src, nil
}

func runCmd(dir string, env []string, name string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// GoRaceVerdict builds and runs the program under the Go race detector
// and reports whether it flagged anything. A non-zero exit is fine when
// the warning is present (the detector exits 66); without the warning
// it is a real failure.
func GoRaceVerdict(srcDir string) (bool, string, error) {
	out, err := runCmd(srcDir, nil, "go", "run", "-race", ".")
	racy := strings.Contains(out, raceWarning)
	if err != nil && !racy {
		return false, out, fmt.Errorf("go run -race: %w\n%s", err, out)
	}
	return racy, out, nil
}

// BuildInstrumented instruments srcDir into work/shadow and builds the
// resulting module, returning the shadow dir, the binary path, and the
// rewrite result.
func BuildInstrumented(srcDir, work string, allow []string) (string, string, *Result, error) {
	shadow := filepath.Join(work, "shadow")
	res, err := Instrument(Config{Dir: srcDir, Out: shadow, Allow: allow})
	if err != nil {
		return "", "", nil, err
	}
	bin := filepath.Join(work, "instrumented.bin")
	if out, err := runCmd(shadow, nil, "go", "build", "-o", bin, "."); err != nil {
		return "", "", nil, fmt.Errorf("building instrumented program: %w\n%s", err, out)
	}
	return shadow, bin, res, nil
}

// RunInstrumented executes an instrumented binary against one backend
// and returns its shutdown report. extraEnv entries (e.g.
// SPSYNC_SERIALIZE=1 or SPSYNC_TRACE=...) are passed through.
func RunInstrumented(bin, workDir, backend string, extraEnv ...string) (*spsync.ReportJSON, string, error) {
	repPath := filepath.Join(workDir, "report.json")
	os.Remove(repPath)
	env := append([]string{
		"SPSYNC_BACKEND=" + backend,
		"SPSYNC_REPORT=" + repPath,
	}, extraEnv...)
	out, err := runCmd(workDir, env, bin)
	if err != nil {
		return nil, out, fmt.Errorf("instrumented run (%s): %w\n%s", backend, err, out)
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		return nil, out, fmt.Errorf("instrumented run (%s): no report: %w\n%s", backend, err, out)
	}
	var rep spsync.ReportJSON
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, out, fmt.Errorf("instrumented run (%s): bad report: %w", backend, err)
	}
	if rep.TraceErr != "" {
		return nil, out, fmt.Errorf("instrumented run (%s): trace error: %s", backend, rep.TraceErr)
	}
	return &rep, out, nil
}

// SelftestProgram runs the full differential check for one corpus
// program: expectation vs `go run -race` vs the instrumented run.
func SelftestProgram(progDir, work, backend string, allow []string) (*CorpusVerdict, error) {
	expect, err := ExpectedVerdict(progDir)
	if err != nil {
		return nil, err
	}
	srcDir, err := PrepareProgram(progDir, work)
	if err != nil {
		return nil, err
	}
	raceRacy, _, err := GoRaceVerdict(srcDir)
	if err != nil {
		return nil, err
	}
	_, bin, _, err := BuildInstrumented(srcDir, work, allow)
	if err != nil {
		return nil, err
	}
	rep, _, err := RunInstrumented(bin, work, backend)
	if err != nil {
		return nil, err
	}
	return &CorpusVerdict{
		Program:  filepath.Base(progDir),
		Expect:   expect,
		SPRacy:   rep.Racy,
		RaceRacy: raceRacy,
		Report:   rep,
	}, nil
}
