package tier

// slotTable stores the entries of live objects in a slice and names each by a
// handle, generation<<32 | slot. Deleting an entry bumps its slot's
// generation and pushes the slot on a LIFO free list, so the next put reuses
// the most recently freed slot, and a handle kept past its entry's delete
// fails the generation check instead of reaching the slot's next entry. Reuse
// order is a pure function of the put/delete sequence, so handles are
// deterministic. A slot's generation wraps after 2^32 deletes, which no run
// comes near.
type slotTable[T any] struct {
	entries []slotEntry[T]
	free    []uint32 // freed slots, reused last-freed first
	live    int
}

type slotEntry[T any] struct {
	val  T
	gen  uint32
	used bool
}

// put stores v and returns its handle. A fresh slot starts at generation 0,
// so a table that never deletes hands out 0, 1, 2, ...
func (t *slotTable[T]) put(v T) uint64 {
	t.live++
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		e := &t.entries[slot]
		e.val, e.used = v, true
		return uint64(e.gen)<<32 | uint64(slot)
	}
	t.entries = append(t.entries, slotEntry[T]{val: v, used: true})
	return uint64(len(t.entries) - 1)
}

// get returns the live entry h names, or nil. The pointer is valid until the
// next put.
func (t *slotTable[T]) get(h uint64) *T {
	slot := h & (1<<32 - 1)
	if slot >= uint64(len(t.entries)) {
		return nil
	}
	e := &t.entries[slot]
	if !e.used || e.gen != uint32(h>>32) {
		return nil
	}
	return &e.val
}

// del removes the live entry h names and returns it; ok is false, and the
// table unchanged, when h names no live entry.
func (t *slotTable[T]) del(h uint64) (v T, ok bool) {
	p := t.get(h)
	if p == nil {
		return v, false
	}
	slot := uint32(h)
	e := &t.entries[slot]
	v = e.val
	var zero T
	e.val, e.used = zero, false
	e.gen++
	t.free = append(t.free, slot)
	t.live--
	return v, true
}
