package main

import (
	"os"
	"testing"
)

// TestSpellserverOutput runs the example in-process and pins its whole
// output. The simulation is deterministic, so every figure it prints is
// exact; the cluster counts come from the runtime's metrics scope.
func TestSpellserverOutput(t *testing.T) {
	const want = `spell-checked 2000 words (2000 correct) in 914941 cycles
cluster fetches: 601 faults brought in 646 pages (whole dictionaries at a time)
the OS saw only masked faults — it can count dictionary loads, not words
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
