package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// aytrace runs the CLI in-process and returns (exit code, stdout, stderr).
func aytrace(args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

var faultLine = regexp.MustCompile(`(?m)^\s+\d+\s+cycle=\d+\s+fault\s+\S+\s+(0x[0-9a-f]+)(.*)$`)

// osFaults returns the addresses of the OS fault log's printed events and
// whether each was marked as masked.
func osFaults(t *testing.T, out string) (addrs []string, masked []bool) {
	t.Helper()
	start := strings.Index(out, "OS fault log")
	if start < 0 {
		t.Fatalf("no OS fault log:\n%s", out)
	}
	log := out[start:]
	if end := strings.Index(log, "adversary's captured trace"); end >= 0 {
		log = log[:end]
	}
	for _, m := range faultLine.FindAllStringSubmatch(log, -1) {
		addrs = append(addrs, m[1])
		masked = append(masked, strings.Contains(m[2], "masked to enclave base"))
	}
	return addrs, masked
}

// On vanilla SGX the OS sees every trapped dictionary page: the fault log
// walks many distinct pages, none masked, and the adversary captured them.
func TestVanillaFaultsShowDictionaryPages(t *testing.T) {
	code, out, errw := aytrace("-victim", "hunspell", "-adversary", "fault", "-max-events", "1000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "victim=hunspell adversary=fault model=vanilla SGX") ||
		!strings.Contains(out, "outcome: ran to completion") {
		t.Fatalf("header:\n%s", out)
	}
	addrs, masked := osFaults(t, out)
	distinct := map[string]bool{}
	for i, a := range addrs {
		if masked[i] {
			t.Fatalf("vanilla fault %d at %s marked masked", i, a)
		}
		distinct[a] = true
	}
	// E7's spell checker answers 24 secret words over a 64-page dictionary.
	if len(distinct) < 10 {
		t.Fatalf("fault log walks %d distinct pages, want the dictionary's:\n%s", len(distinct), out)
	}
	if want := fmt.Sprintf("adversary's captured trace (%d events)", len(addrs)); !strings.Contains(out, want) {
		t.Fatalf("want %q in:\n%s", want, out)
	}
}

// Under Autarky the first trapped access terminates the enclave, and all
// the OS ever saw is the enclave base.
func TestAutarkyShowsOnlyTheEnclaveBase(t *testing.T) {
	code, out, errw := aytrace("-victim", "hunspell", "-adversary", "fault", "-autarky")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "model=Autarky") || !strings.Contains(out, "outcome: enclave TERMINATED") {
		t.Fatalf("outcome:\n%s", out)
	}
	addrs, masked := osFaults(t, out)
	if len(addrs) == 0 {
		t.Fatalf("the OS saw no fault:\n%s", out)
	}
	for i := range addrs {
		if !masked[i] || addrs[i] != addrs[0] {
			t.Fatalf("fault %d at %s is not the masked enclave base:\n%s", i, addrs[i], out)
		}
	}
}

func TestRejectsPairsE7DoesNotRun(t *testing.T) {
	code, out, errw := aytrace("-victim", "jpeg", "-adversary", "adbits")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing", code, out)
	}
	for _, pair := range []string{"hunspell/fault", "hunspell/wrongmap", "freetype/noexec", "jpeg/fault", "hunspell/adbits"} {
		if !strings.Contains(errw, pair) {
			t.Errorf("stderr does not name %s: %q", pair, errw)
		}
	}
	if code, _, _ := aytrace("-n", "20"); code != 2 {
		t.Fatalf("removed flag -n accepted: exit %d", code)
	}
	if code, _, _ := aytrace("extra"); code != 2 {
		t.Fatalf("stray argument accepted: exit %d", code)
	}
}
