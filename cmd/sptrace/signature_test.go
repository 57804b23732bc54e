package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/sp/trace"
)

// signatureSizes are the two workload sizes CI's selftest runs:
// sptrace selftest -n 96 -seed 1, and -n 64 -seed 42.
var signatureSizes = []struct {
	n    int
	seed int64
}{{96, 1}, {64, 42}}

// TestSelftestSignatures pins the trace.Signature of every selftest
// workload's recorded run, at CI's two sizes, to the sha256 digests in
// testdata/signatures.txt. sptrace selftest checks that every backend
// agrees with the live run of the same build; this checks the live
// run against the last build's, so a change that alters which races
// are reported, or how many SP queries the protocols count, fails here
// even when it changes every backend alike. A change meant to alter
// detection replaces the file with the text this test logs on failure.
func TestSelftestSignatures(t *testing.T) {
	data, err := os.ReadFile("testdata/signatures.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " = ")
		if !ok {
			t.Fatalf("testdata/signatures.txt: malformed line %q", line)
		}
		want[key] = sum
	}
	var got strings.Builder
	got.WriteString("# sha256 of trace.Signature of each workload's recorded run (see TestSelftestSignatures)\n")
	for _, size := range signatureSizes {
		for _, sc := range workload.Scenarios() {
			var buf bytes.Buffer
			rep, err := workload.RecordTrace(sc.Build(size.n, size.seed), &buf)
			if err != nil {
				t.Fatalf("%s: recording: %v", sc.Name, err)
			}
			key := fmt.Sprintf("%s -n %d -seed %d", sc.Name, size.n, size.seed)
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(trace.Signature(rep))))
			fmt.Fprintf(&got, "%s = %s\n", key, sum)
			if want[key] != sum {
				t.Errorf("%s: signature sha256 %s, testdata/signatures.txt has %q", key, sum, want[key])
			}
			delete(want, key)
		}
	}
	for key := range want {
		t.Errorf("testdata/signatures.txt pins %s, which no workload records", key)
	}
	if t.Failed() {
		t.Logf("the recorded runs' signatures, as testdata/signatures.txt would hold them:\n%s", got.String())
	}
}
