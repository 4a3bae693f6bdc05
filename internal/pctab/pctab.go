// Package pctab is the table the simulator keys by branch PC: open
// addressing with linear probing over a dense slot slice kept at most half
// full, with Fibonacci hashing. A lookup is a multiply, a shift and usually
// one cache line, with no per-entry allocation or pointer chase — what the
// per-branch hot paths (static hint lookup, phase-1 profiles, telemetry
// sites) pay instead of a Go map access.
//
// Every uint64 is a valid key: PC 0 marks an empty slot, so PC 0 itself is
// held in a side slot outside the slice.
package pctab

import "math/bits"

type slot[V any] struct {
	pc uint64 // 0 marks an empty slot
	v  V
}

// Table maps branch PCs to values of type V. The zero Table is empty and
// ready to use. Pointers returned by Get and Put stay valid until the next
// Put, Delete or Reserve.
type Table[V any] struct {
	slots   []slot[V]
	shift   uint // 64 - log2(len(slots))
	n       int  // entries held in slots
	hasZero bool // PC 0 is held, in zero
	zero    V
}

// minSlots is the slot count of a table's first allocation.
const minSlots = 8

// Len returns the number of entries.
func (t *Table[V]) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Get returns pc's value, or nil when pc is not held.
func (t *Table[V]) Get(pc uint64) *V {
	if pc == 0 {
		if t.hasZero {
			return &t.zero
		}
		return nil
	}
	if t.n == 0 {
		return nil
	}
	if s := t.probe(pc); s.pc != 0 {
		return &s.v
	}
	return nil
}

// Put returns pc's value, first inserting a zero V when pc is new; added
// reports the insertion.
func (t *Table[V]) Put(pc uint64) (v *V, added bool) {
	if pc == 0 {
		added = !t.hasZero
		t.hasZero = true
		return &t.zero, added
	}
	if len(t.slots) == 0 {
		t.resize(minSlots)
	}
	s := t.probe(pc)
	if s.pc != 0 {
		return &s.v, false
	}
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		s = t.probe(pc)
	}
	s.pc = pc
	t.n++
	return &s.v, true
}

// Delete removes pc, reporting whether it was held.
func (t *Table[V]) Delete(pc uint64) bool {
	if pc == 0 {
		held := t.hasZero
		var zero V
		t.hasZero, t.zero = false, zero
		return held
	}
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(pc)
	for ; t.slots[i].pc != pc; i = (i + 1) & mask {
		if t.slots[i].pc == 0 {
			return false
		}
	}
	// Backward-shift deletion: pull each later entry of the probe run into
	// the hole whenever the hole lies between the entry's home slot and
	// where it sits, so lookups never need tombstones.
	for j := (i + 1) & mask; t.slots[j].pc != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].pc))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
	return true
}

// Range calls fn for every entry, in no particular order. fn may modify the
// value but must not Put or Delete.
func (t *Table[V]) Range(fn func(pc uint64, v *V)) {
	if t.hasZero {
		fn(0, &t.zero)
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.pc != 0 {
			fn(s.pc, &s.v)
		}
	}
}

// Reserve sizes the table to hold n entries without growing.
func (t *Table[V]) Reserve(n int) {
	size := max(minSlots, len(t.slots))
	for size < 2*n {
		size *= 2
	}
	if size != len(t.slots) {
		t.resize(size)
	}
}

// Clone returns a copy of t; values are copied as by assignment.
func (t *Table[V]) Clone() Table[V] {
	c := *t
	c.slots = append([]slot[V](nil), t.slots...)
	return c
}

func (t *Table[V]) home(pc uint64) int { return int(pc * 0x9e3779b97f4a7c15 >> t.shift) }

// probe returns the slot holding pc, or the empty slot where it belongs.
func (t *Table[V]) probe(pc uint64) *slot[V] {
	mask := len(t.slots) - 1
	for i := t.home(pc); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.pc == pc || s.pc == 0 {
			return s
		}
	}
}

// resize rehashes into size slots, a power of two.
func (t *Table[V]) resize(size int) {
	old := t.slots
	t.slots = make([]slot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := range old {
		if s := &old[i]; s.pc != 0 {
			*t.probe(s.pc) = *s
		}
	}
}
