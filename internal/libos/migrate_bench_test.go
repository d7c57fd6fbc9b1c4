package libos

import (
	"testing"

	"autarky/internal/sgx"
)

// BenchmarkMigrationSeal measures the steady-state seal hot path — encode
// the captured pages and seal the envelope into warm scratch buffers.
// ReportAllocs pins the zero-alloc discipline that
// TestMigrationSealZeroAlloc gates: allocs/op must read 0.
func BenchmarkMigrationSeal(b *testing.B) {
	p := runMigrant(b, newKernel(2048))
	if err := p.Run(p.capture); err != nil {
		b.Fatal(err)
	}
	epoch := p.Proc.E.MigrationEpoch() + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.seal(sgx.UseMigration, epoch); err != nil {
			b.Fatal(err)
		}
	}
}
