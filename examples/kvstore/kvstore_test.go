package main

import (
	"os"
	"testing"
)

// TestKvstoreOutput runs the example in-process and pins its whole
// output. The simulation is deterministic, so every figure it prints is
// exact; the hit and miss counts come from the ORAM cache's metrics scope.
func TestKvstoreOutput(t *testing.T) {
	const want = `uniform :   5070 req/s  (cache: 11088 hits, 3104 misses)
zipf(0.99):   7952 req/s  (cache: 16239 hits, 3953 misses)
page faults the OS observed: 0 (every ORAM structure page is pinned)
the access pattern to items is cryptographically hidden by the ORAM
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
