package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockChargeAmbient(t *testing.T) {
	c := NewClock()
	if c.Cycles() != 0 {
		t.Fatalf("new clock at %d", c.Cycles())
	}
	c.ChargeAmbient(5)
	c.ChargeAmbient(7)
	if got := c.Cycles(); got != 12 {
		t.Fatalf("Cycles() = %d, want 12", got)
	}
}

// TestClockRoomTracksTheLimit: Room is what can still be charged without a
// LimitError, and unbounded without a limit.
func TestClockRoomTracksTheLimit(t *testing.T) {
	c := NewClock()
	if c.Room() != math.MaxUint64 {
		t.Fatalf("Room without a limit = %d", c.Room())
	}
	c.SetLimit(100)
	c.ChargeAs(CatCompute, 60)
	if c.Room() != 40 {
		t.Fatalf("Room = %d, want 40", c.Room())
	}
	c.ChargeAmbient(c.Room()) // exactly up to the limit: no panic
	if c.Room() != 0 {
		t.Fatalf("Room at the limit = %d", c.Room())
	}
	c.SetLimit(50) // below the cycles already charged
	if c.Room() != 0 {
		t.Fatalf("Room past the limit = %d", c.Room())
	}
}

func TestClockSince(t *testing.T) {
	c := NewClock()
	c.ChargeAmbient(100)
	start := c.Cycles()
	c.ChargeAmbient(42)
	if got := c.Since(start); got != 42 {
		t.Fatalf("Since = %d, want 42", got)
	}
}

func TestClockSincePanicsOnFutureReading(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for future start")
		}
	}()
	c.Since(10)
}

func TestClockReset(t *testing.T) {
	c := NewClock()
	c.ChargeAmbient(9)
	c.Reset()
	if c.Cycles() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	c.ChargeAmbient(3)
	sw := NewStopwatch(c)
	c.ChargeAmbient(10)
	if got := sw.Elapsed(); got != 10 {
		t.Fatalf("Elapsed = %d, want 10", got)
	}
}

func TestDefaultCostsArePositive(t *testing.T) {
	c := DefaultCosts()
	checks := map[string]uint64{
		"TLBHit": c.TLBHit, "PTWalkLevel": c.PTWalkLevel, "ADCheck": c.ADCheck,
		"MemAccess": c.MemAccess, "EENTER": c.EENTER, "EEXIT": c.EEXIT,
		"AEX": c.AEX, "ERESUME": c.ERESUME, "EWB": c.EWB, "ELDU": c.ELDU,
		"EAUG": c.EAUG, "EACCEPT": c.EACCEPT, "EACCEPTCOPY": c.EACCEPTCOPY,
		"EMODPR": c.EMODPR, "EMODT": c.EMODT, "EREMOVE": c.EREMOVE,
		"SWEncryptPage": c.SWEncryptPage, "SWDecryptPage": c.SWDecryptPage,
		"ObliviousWordScan": c.ObliviousWordScan, "ORAMBlockMove": c.ORAMBlockMove,
		"ExitlessCall": c.ExitlessCall, "TLBShootdown": c.TLBShootdown,
	}
	for name, v := range checks {
		if v == 0 {
			t.Errorf("cost %s is zero", name)
		}
	}
}

func TestCostModelShape(t *testing.T) {
	c := DefaultCosts()
	// The shapes the paper's analysis depends on.
	if c.ExitlessCall >= c.SyscallRound {
		t.Error("exitless calls must be cheaper than classic syscalls")
	}
	if c.ADCheck >= c.PTWalkLevel*4 {
		t.Error("the A/D check must be small relative to a walk")
	}
	if c.UpcallDeliver >= c.AEX+c.EENTER {
		t.Error("elided fault delivery must beat AEX + EENTER")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	cSeed := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != cSeed.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRand(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandBytesCoversLength(t *testing.T) {
	r := NewRand(5)
	for _, n := range []int{0, 1, 7, 8, 9, 31, 64} {
		b := make([]byte, n)
		r.Bytes(b)
		if len(b) != n {
			t.Fatalf("length changed for n=%d", n)
		}
	}
	// Statistical sanity: 4096 random bytes should not be mostly zero.
	b := make([]byte, 4096)
	r.Bytes(b)
	zeros := 0
	for _, v := range b {
		if v == 0 {
			zeros++
		}
	}
	if zeros > 256 {
		t.Fatalf("%d/4096 zero bytes — generator broken", zeros)
	}
}

func TestRandUint64nRange(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 100; i++ {
		if v := r.Uint64n(9); v >= 9 {
			t.Fatalf("Uint64n(9) = %d", v)
		}
	}
}
