package main

import (
	"bytes"
	"strings"
	"testing"
)

// The demonstration re-judges every E7 row and exits 0 only when each
// attack recovers the secret on vanilla SGX and is stopped under Autarky.
func TestDemoPrintsEveryE7Row(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	for _, row := range []string{
		"hunspell/page-fault-trace", "hunspell/wrong-mapping", "freetype/exec-trace",
		"libjpeg/idct-fault-count", "hunspell/a-d-bit-monitor",
		"ordering/suspend-tamper-resume", "ordering/suspend-tamper-pinned-resume",
		"ordering/rollback-stale-blob",
	} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("no %s row in:\n%s", row, out.String())
		}
	}
	if !strings.Contains(out.String(), "All attacks succeeded against vanilla SGX and were detected under Autarky.") {
		t.Fatalf("no verdict line:\n%s", out.String())
	}
	if code := run([]string{"-nonsense"}, &out, &errw); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}
