package controller

import "fmt"

// zoneHeap is a min-heap of zone ids ordered by (key, id). Each zone's heap
// position is tracked, so adding or removing any zone costs O(log n) and the
// minimum is read in O(1). A zone is in the heap at most once; the Zoned
// indexes keep membership exact, so no entry is ever stale.
type zoneHeap struct {
	ids []int   // heap order
	key []int64 // per zone id: its key while present
	pos []int   // per zone id: index into ids, or -1 when absent
}

// newZoneHeap returns a heap over zone ids [0, n) holding none of them.
func newZoneHeap(n int) zoneHeap {
	h := zoneHeap{key: make([]int64, n), pos: make([]int, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// min returns the zone with the smallest (key, id), or -1 when the heap is
// empty.
func (h *zoneHeap) min() int {
	if len(h.ids) == 0 {
		return -1
	}
	return h.ids[0]
}

// has reports whether zone id is in the heap.
func (h *zoneHeap) has(id int) bool { return h.pos[id] >= 0 }

// add inserts zone id, which must be absent, with the given key.
func (h *zoneHeap) add(id int, key int64) {
	h.key[id] = key
	h.pos[id] = len(h.ids)
	h.ids = append(h.ids, id)
	h.up(len(h.ids) - 1)
}

// remove deletes zone id if present.
func (h *zoneHeap) remove(id int) {
	i := h.pos[id]
	if i < 0 {
		return
	}
	last := len(h.ids) - 1
	h.swap(i, last)
	h.ids = h.ids[:last]
	h.pos[id] = -1
	if i < last && !h.down(i) {
		h.up(i)
	}
}

func (h *zoneHeap) less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	return h.key[a] < h.key[b] || h.key[a] == h.key[b] && a < b
}

func (h *zoneHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = i
	h.pos[h.ids[j]] = j
}

func (h *zoneHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts the entry at i toward the leaves and reports whether it moved.
func (h *zoneHeap) down(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(h.ids) {
			break
		}
		if r := c + 1; r < len(h.ids) && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > start
}

// check verifies the position index and the heap order.
func (h *zoneHeap) check() error {
	for i, id := range h.ids {
		if h.pos[id] != i {
			return fmt.Errorf("zone %d at heap index %d, position index says %d", id, i, h.pos[id])
		}
		if i > 0 && h.less(i, (i-1)/2) {
			return fmt.Errorf("zone %d at heap index %d sorts before its parent", id, i)
		}
	}
	n := 0
	for _, p := range h.pos {
		if p >= 0 {
			n++
		}
	}
	if n != len(h.ids) {
		return fmt.Errorf("position index lists %d zones, heap holds %d", n, len(h.ids))
	}
	return nil
}
