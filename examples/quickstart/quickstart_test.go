package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestQuickstartRuns builds and runs the example exactly the way the
// README tells a new user to (`go run ./examples/quickstart`) and checks
// the narrative output: the enclave loads, pages under pressure (the
// deterministic simulation makes the paging counts exact), and detects the
// OS attack at the end.
func TestQuickstartRuns(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run .: %v\n%s", err, out)
	}
	for _, want := range []string{
		"enclave loaded: measurement",
		"self-paging faults: 288, pages fetched: 291, evicted: 291\n",
		"OS-induced fault detected:",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("quickstart output missing %q:\n%s", want, out)
		}
	}
}
