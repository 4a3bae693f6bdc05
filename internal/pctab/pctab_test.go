package pctab

import (
	"sort"
	"testing"
)

// keys returns t's keys, sorted.
func keys[V any](t *Table[V]) []uint64 {
	var out []uint64
	t.Range(func(pc uint64, _ *V) { out = append(out, pc) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestTableMatchesMap drives a table and a map through the same random
// Put/Delete/Get sequence — over a small key space so probe runs collide,
// wrap and shift back on delete, with PC 0 and 2^64−1 among the keys — and
// requires them to agree after every operation.
func TestTableMatchesMap(t *testing.T) {
	space := []uint64{0, ^uint64(0), ^uint64(0) - 4}
	for i := uint64(1); i <= 200; i++ {
		space = append(space, 0x4000+i*4)
	}
	var tab Table[int]
	ref := map[uint64]int{}
	s := uint64(1)
	for step := 0; step < 20_000; step++ {
		s = s*6364136223846793005 + 1442695040888963407
		pc := space[s>>33%uint64(len(space))]
		switch s >> 60 % 3 {
		case 0, 1:
			v, added := tab.Put(pc)
			if _, held := ref[pc]; added == held {
				t.Fatalf("step %d: Put(%#x) added=%v, map held=%v", step, pc, added, held)
			}
			*v = step
			ref[pc] = step
		default:
			_, held := ref[pc]
			if got := tab.Delete(pc); got != held {
				t.Fatalf("step %d: Delete(%#x) = %v, map held=%v", step, pc, got, held)
			}
			delete(ref, pc)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, map %d", step, tab.Len(), len(ref))
		}
		for _, q := range space[:8] {
			v, held := ref[q]
			got := tab.Get(q)
			if (got != nil) != held || (held && *got != v) {
				t.Fatalf("step %d: Get(%#x) = %v, map (%d, %v)", step, q, got, v, held)
			}
		}
	}
	for _, pc := range space {
		v, held := ref[pc]
		if got := tab.Get(pc); (got != nil) != held || (held && *got != v) {
			t.Fatalf("Get(%#x) = %v, map (%d, %v)", pc, got, v, held)
		}
	}
	if got := keys(&tab); len(got) != len(ref) {
		t.Fatalf("Range visits %d keys, map holds %d", len(got), len(ref))
	}
}

// TestTableExtremePCs pins the keys a pc+1 or zero-marks-empty scheme would
// lose: PC 0 and 2^64−1 are held, counted and found like any other.
func TestTableExtremePCs(t *testing.T) {
	var tab Table[bool]
	if tab.Get(0) != nil || tab.Get(^uint64(0)) != nil {
		t.Fatal("empty table reports a hit")
	}
	for i := 0; i < 5; i++ {
		for _, pc := range []uint64{0, ^uint64(0)} {
			v, added := tab.Put(pc)
			if added != (i == 0) {
				t.Fatalf("Put(%#x) #%d: added=%v", pc, i, added)
			}
			*v = true
		}
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d after repeated Puts of two keys, want 2", tab.Len())
	}
	if v := tab.Get(^uint64(0)); v == nil || !*v {
		t.Fatal("2^64-1 lost")
	}
	if got := keys(&tab); len(got) != 2 || got[0] != 0 || got[1] != ^uint64(0) {
		t.Fatalf("Range keys = %#x", got)
	}
	if !tab.Delete(0) || tab.Delete(0) || tab.Get(0) != nil || tab.Len() != 1 {
		t.Fatal("Delete(0) misbehaves")
	}
}

// TestTableCloneAndReserve checks that a clone is independent of its source
// and that Reserve keeps every entry.
func TestTableCloneAndReserve(t *testing.T) {
	var tab Table[int]
	for pc := uint64(0); pc < 100; pc++ {
		v, _ := tab.Put(pc * 8)
		*v = int(pc)
	}
	c := tab.Clone()
	*c.Get(8) = -1
	c.Delete(16)
	if *tab.Get(8) != 1 || tab.Get(16) == nil {
		t.Fatal("clone shares state with its source")
	}
	tab.Reserve(10_000)
	for pc := uint64(0); pc < 100; pc++ {
		if v := tab.Get(pc * 8); v == nil || *v != int(pc) {
			t.Fatalf("Reserve lost pc %#x", pc*8)
		}
	}
	if tab.Len() != 100 || c.Len() != 99 {
		t.Fatalf("Len = %d / %d, want 100 / 99", tab.Len(), c.Len())
	}
}
