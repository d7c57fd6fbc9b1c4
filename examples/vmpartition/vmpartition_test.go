package main

import (
	"os"
	"testing"
)

// TestVmpartitionOutput runs the example in-process and pins its whole
// output. The simulation is deterministic, so every figure it prints is
// exact; each guest's counts come from its own runtime's metrics scope.
func TestVmpartitionOutput(t *testing.T) {
	const want = `guest 0: EPC frames [1048576, 1049088)
guest 1: EPC frames [1049088, 1049344)
unassigned EPC frames: 256

guest 0 tenant: 128 self-paging faults, 132 pages fetched, 0 attacks flagged
guest 1 tenant: 128 self-paging faults, 132 pages fetched, 0 attacks flagged

both tenants paged securely inside disjoint EPC partitions
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
