package ftl

import (
	"bytes"
	"reflect"
	"testing"
)

func TestMarkBadBlocksDeterministicSealedOnly(t *testing.T) {
	f1 := fullFTL(t, testConfig())
	f2 := fullFTL(t, testConfig())

	m1, err := f1.MarkBadBlocks(5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != 5 {
		t.Fatalf("marked %d blocks, want 5", len(m1))
	}
	m2, err := f2.MarkBadBlocks(5, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Identical devices + identical seed = identical storm: the campaign
	// engine's reproducibility rests on this.
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("same seed picked different blocks:\n%v\n%v", m1, m2)
	}
	// Only sealed superblock members may be hit — a bad free or open block
	// would fail host programs, which is a different fault.
	for _, b := range m1 {
		sb := f1.bySB[b]
		if sb == nil || !sb.sealed {
			t.Fatalf("block %v is not a sealed superblock member", b)
		}
		if !f1.arr.IsBad(b) {
			t.Fatalf("block %v not marked in the array", b)
		}
	}
	// Sealed members keep serving reads after the storm.
	for lpn := int64(0); lpn < f1.Capacity(); lpn++ {
		r, err := f1.Read(lpn)
		if err != nil {
			t.Fatalf("read %d after storm: %v", lpn, err)
		}
		if !bytes.Equal(r.Data[:len(payload(lpn, 0))], payload(lpn, 0)) {
			t.Fatalf("lpn %d corrupted by storm", lpn)
		}
	}
}

func TestMarkBadBlocksDifferentSeedsDiffer(t *testing.T) {
	f1 := fullFTL(t, testConfig())
	f2 := fullFTL(t, testConfig())
	m1, _ := f1.MarkBadBlocks(5, 1)
	m2, _ := f2.MarkBadBlocks(5, 2)
	if reflect.DeepEqual(m1, m2) {
		t.Fatalf("different seeds picked identical blocks: %v", m1)
	}
}

func TestMarkBadBlocksEdgeCases(t *testing.T) {
	fresh := newFTL(t, testConfig())
	if m, err := fresh.MarkBadBlocks(3, 7); err != nil || m != nil {
		t.Fatalf("fresh FTL (no sealed blocks): %v, %v", m, err)
	}
	full := fullFTL(t, testConfig())
	if m, err := full.MarkBadBlocks(0, 7); err != nil || m != nil {
		t.Fatalf("n=0: %v, %v", m, err)
	}
	// Asking for more than exists clamps to the sealed pool.
	m, err := full.MarkBadBlocks(1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) == 0 {
		t.Fatal("clamped storm marked nothing")
	}
	seen := make(map[string]bool, len(m))
	for _, b := range m {
		k := b.String()
		if seen[k] {
			t.Fatalf("block %v marked twice", b)
		}
		seen[k] = true
	}
}
