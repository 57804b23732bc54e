package main

import (
	"strings"
	"testing"
)

// TestReplayNamesUnknownBackend requires replay to reject a backend name
// the registry does not know before it opens the trace, so the error
// names the backend rather than a missing file.
func TestReplayNamesUnknownBackend(t *testing.T) {
	err := cmdReplay([]string{"-backend", "nope", "missing.sptr"})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("replay -backend nope missing.sptr: error %v, want one naming the backend nope", err)
	}
}
