package main

import (
	"os"
	"testing"
)

// TestImagepipeOutput runs the example in-process and pins its whole
// output. The simulation is deterministic, so every figure it prints is
// exact; the fault and attack counts come from the runtime's metrics scope.
func TestImagepipeOutput(t *testing.T) {
	const want = `decoded+filtered+encoded a 1.0 MB image in 27422394 cycles
forwarded OS-paging faults (insensitive output buffer): 663
self-paging faults on other enclave-managed pages: 32 (the pinned IDCT buffers never fault)
attacks detected: 0
`
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("output changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
