package trace

import (
	"strings"
	"testing"

	"autarky/internal/mmu"
)

func mkLog(vpns ...uint64) *Log {
	l := &Log{}
	for _, v := range vpns {
		l.Add(Event{Addr: mmu.PageOf(v)})
	}
	return l
}

func TestLogBasics(t *testing.T) {
	l := mkLog(1, 2, 1)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	pages := l.Pages()
	if len(pages) != 3 || pages[0] != 1 || pages[1] != 2 || pages[2] != 1 {
		t.Fatalf("Pages = %v", pages)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestDistinctPagesSorted(t *testing.T) {
	l := mkLog(5, 1, 5, 3)
	got := l.DistinctPages()
	want := []uint64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("DistinctPages = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DistinctPages = %v, want %v", got, want)
		}
	}
}

func TestSignatureDistinguishesOrder(t *testing.T) {
	if mkLog(1, 2).Signature() == mkLog(2, 1).Signature() {
		t.Fatal("signature ignores order")
	}
	if mkLog(1, 2).Signature() != mkLog(1, 2).Signature() {
		t.Fatal("signature not deterministic")
	}
	if mkLog().Signature() != "" {
		t.Fatal("empty log signature not empty")
	}
}

func TestOnlyKeepsOneKindInOrder(t *testing.T) {
	l := &Log{}
	for i, k := range []Kind{KindFault, KindPageIn, KindFault, KindAccessedBit, KindPageIn} {
		l.Add(Event{Cycle: uint64(i), Addr: mmu.PageOf(uint64(i)), Kind: k})
	}
	faults := l.Only(KindFault)
	if faults.Len() != 2 || faults.Events[0].Cycle != 0 || faults.Events[1].Cycle != 2 {
		t.Fatalf("Only(fault) = %+v", faults.Events)
	}
	pageIns := l.Only(KindPageIn)
	if got := pageIns.Pages(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("Only(page-in) pages = %v", got)
	}
	if l.Only(KindDirtyBit).Len() != 0 {
		t.Fatal("Only returned events of an absent kind")
	}
	if l.Len() != 5 {
		t.Fatal("Only modified the source log")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindFault, KindAccessedBit, KindDirtyBit, KindPageIn} {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if KindPageIn.String() != "page-in" {
		t.Errorf("KindPageIn = %q", KindPageIn.String())
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}
