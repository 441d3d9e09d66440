package tier

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/fault"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// sameSlots reports whether two tables hold the same entries under the same
// handles and will hand out the same handles from here on: every slot's
// entry, generation and use, the free list in order, and the live count.
func sameSlots[T comparable](a, b *slotTable[T]) bool {
	return a.live == b.live && slices.Equal(a.entries, b.entries) && slices.Equal(a.free, b.free)
}

// TestSlotTableMatchesMapModel drives a slot table with random puts, gets
// and deletes against a map of the live handles. Every live handle must
// read its value; every deleted handle must fail get, and a random one del,
// leaving the table unchanged, also after its slot has been reused; a put must take the
// most recently freed slot (LIFO), or a new one when none is free; and the
// live count must equal the map's size.
func TestSlotTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab slotTable[int]
		live := map[uint64]int{}
		var dead []uint64
		var freed []uint32 // the model's free list, in the order slots were freed
		reused := 0
		for op := 0; op < 2000; op++ {
			if len(live) == 0 || rng.Intn(5) < 3 {
				v := rng.Int()
				h := tab.put(v)
				if _, dup := live[h]; dup {
					t.Fatalf("seed %d op %d: put handed out live handle %#x", seed, op, h)
				}
				if n := len(freed); n > 0 {
					if slot := uint32(h); slot != freed[n-1] {
						t.Fatalf("seed %d op %d: put took slot %d, want last freed %d", seed, op, slot, freed[n-1])
					}
					freed = freed[:n-1]
					reused++
				} else if int(uint32(h)) != len(tab.entries)-1 {
					t.Fatalf("seed %d op %d: put took slot %d with no slot free, want new slot %d", seed, op, uint32(h), len(tab.entries)-1)
				}
				live[h] = v
			} else {
				hs := make([]uint64, 0, len(live))
				for h := range live {
					hs = append(hs, h)
				}
				slices.Sort(hs)
				h := hs[rng.Intn(len(hs))]
				v, ok := tab.del(h)
				if !ok || v != live[h] {
					t.Fatalf("seed %d op %d: del(%#x) = (%d, %v), want (%d, true)", seed, op, h, v, ok, live[h])
				}
				delete(live, h)
				dead = append(dead, h)
				freed = append(freed, uint32(h))
			}
			if tab.live != len(live) {
				t.Fatalf("seed %d op %d: live count %d, model %d", seed, op, tab.live, len(live))
			}
			for h, v := range live {
				if p := tab.get(h); p == nil || *p != v {
					t.Fatalf("seed %d op %d: get(%#x) = %v, want %d", seed, op, h, p, v)
				}
			}
			for _, h := range dead {
				if tab.get(h) != nil {
					t.Fatalf("seed %d op %d: stale handle %#x still reads an entry", seed, op, h)
				}
			}
			if len(dead) > 0 {
				h := dead[rng.Intn(len(dead))]
				before := slotTable[int]{entries: slices.Clone(tab.entries), free: slices.Clone(tab.free), live: tab.live}
				if _, ok := tab.del(h); ok || !sameSlots(&tab, &before) {
					t.Fatalf("seed %d op %d: del of stale handle %#x succeeded or changed the table", seed, op, h)
				}
			}
			if !slices.Equal(tab.free, freed) {
				t.Fatalf("seed %d op %d: free list %v, model %v", seed, op, tab.free, freed)
			}
		}
		if reused == 0 {
			t.Fatalf("seed %d: no slot was reused; the test exercised nothing", seed)
		}
	}
}

// TestSlotTableRejectsUnissuedHandles covers handles no put returned: past
// the last slot, and a free slot named at its current generation.
func TestSlotTableRejectsUnissuedHandles(t *testing.T) {
	var tab slotTable[string]
	a := tab.put("a")
	if a != 0 {
		t.Fatalf("first handle %#x, want 0", a)
	}
	if tab.get(1) != nil || tab.get(1<<32) != nil {
		t.Fatal("get of a handle past the last slot or at a future generation found an entry")
	}
	if _, ok := tab.del(a); !ok {
		t.Fatal("del of a live handle failed")
	}
	// Slot 0 is free at generation 1; no put has issued that handle yet.
	if tab.get(1<<32) != nil {
		t.Fatal("get of a free slot at its current generation found an entry")
	}
	if _, ok := tab.del(1 << 32); ok || tab.live != 0 || len(tab.free) != 1 {
		t.Fatal("del of a free slot at its current generation changed the table")
	}
	if b := tab.put("b"); b != 1<<32 {
		t.Fatalf("reuse of slot 0 handed out %#x, want generation 1", b)
	}
}

// staleManager stores one page on an HBM-only manager, deletes it, and stores
// another, which reuses the first page's slot. It returns the manager, the
// deleted page's id and the live page's id.
func staleManager(t *testing.T) (*Manager, ObjectID, ObjectID) {
	t.Helper()
	m, err := NewManager(StaticPolicy{}, smallHBM(t, 64*units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	old, _, err := m.Put(kvMeta(8 * units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(old); err != nil {
		t.Fatal(err)
	}
	cur, _, err := m.Put(kvMeta(4 * units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(cur) != uint32(old) || cur == old {
		t.Fatalf("ids %#x then %#x: want the same slot at a new generation", old, cur)
	}
	return m, old, cur
}

// TestManagerRejectsStaleIDs requires an id whose object was deleted to fail
// every lookup with "no object" once its slot holds another object, and the
// failed calls to leave that object alone.
func TestManagerRejectsStaleIDs(t *testing.T) {
	m, old, cur := staleManager(t)
	want := fmt.Sprintf("tier: no object %d", old)
	var p ReadPlan
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Get", func() error { _, _, err := m.Get(old); return err }},
		{"Delete", func() error { return m.Delete(old) }},
		{"TierOf", func() error { _, err := m.TierOf(old); return err }},
		{"PlanAppend", func() error { return m.PlanAppend(&p, old) }},
		{"Reseat", func() error { _, err := m.Reseat(old); return err }},
		{"Migrate", func() error { return m.Migrate(old, 0) }},
	} {
		if err := c.call(); err == nil || err.Error() != want {
			t.Fatalf("%s(stale id): %v, want %q", c.name, err, want)
		}
	}
	m.Forget(old)
	if p.Len() != 0 || m.NumObjects() != 1 {
		t.Fatalf("stale calls changed state: plan %d, %d objects", p.Len(), m.NumObjects())
	}
	if err := m.PlanAppend(&p, cur); err != nil {
		t.Fatal(err)
	}
	if n, err := m.GetPlanned(&p); n != 1 || err != nil {
		t.Fatalf("live object after stale calls: read %d: %v", n, err)
	}
	if err := m.Delete(cur); err != nil {
		t.Fatal(err)
	}
	if err := m.tiers[0].(*DeviceTier).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceTierRejectsStaleHandles is the same check one layer down.
func TestDeviceTierRejectsStaleHandles(t *testing.T) {
	d := smallHBM(t, 64*units.MiB)
	old, _, err := d.Put(kvMeta(8 * units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(old); err != nil {
		t.Fatal(err)
	}
	cur, _, err := d.Put(kvMeta(4 * units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(cur) != uint32(old) || cur == old {
		t.Fatalf("handles %#x then %#x: want the same slot at a new generation", old, cur)
	}
	want := fmt.Sprintf("tier: hbm has no object %d", old)
	if _, err := d.Get(old); err == nil || err.Error() != want {
		t.Fatalf("Get(stale): %v, want %q", err, want)
	}
	if _, err := d.ResolveSpan(old); err == nil || err.Error() != want {
		t.Fatalf("ResolveSpan(stale): %v, want %q", err, want)
	}
	if n, err := d.GetBatch([]uint64{cur, old}); n != 1 || err == nil || err.Error() != want {
		t.Fatalf("GetBatch(live, stale): (%d, %v), want (1, %q)", n, err, want)
	}
	if err := d.Delete(old); err == nil || err.Error() != want {
		t.Fatalf("Delete(stale): %v, want %q", err, want)
	}
	if free := d.Info().Free; free != 60*units.MiB {
		t.Fatalf("free %v after stale calls, want 60 MiB", free)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedReseatForgetsObject arms write faults that fail every write, so
// Reseat loses the object: its id must stop naming anything, and the next
// object must reuse its slot.
func TestFailedReseatForgetsObject(t *testing.T) {
	m, err := NewManager(StaticPolicy{}, smallHBM(t, 64*units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := m.Put(kvMeta(8 * units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	m.tiers[0].(Faultable).SetFaults(memdev.FaultConfig{Seed: 1, WriteFaultRate: 1})
	if _, err := m.Reseat(id); !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("Reseat under write faults: %v, want a write fault", err)
	}
	if m.NumObjects() != 0 || m.Reseats() != 0 {
		t.Fatalf("after a failed reseat: %d objects, %d reseats", m.NumObjects(), m.Reseats())
	}
	if _, err := m.TierOf(id); err == nil {
		t.Fatal("a failed reseat left its id naming an object")
	}
	m.tiers[0].(Faultable).SetFaults(memdev.FaultConfig{})
	next, _, err := m.Put(kvMeta(8 * units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(next) != uint32(id) || next == id {
		t.Fatalf("ids %#x then %#x: want the freed slot at a new generation", id, next)
	}
}

// TestManagerChurnAllocatesNothing pins the KV-page churn of a serving node
// on HBM: store eight pages, plan and read them, delete them. Once the
// scratch buffers, id tables and device chunks are warm, a round must not
// allocate.
func TestManagerChurnAllocatesNothing(t *testing.T) {
	m, err := NewManager(StaticPolicy{}, smallHBM(t, units.GiB))
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]Meta, 8)
	for i := range metas {
		metas[i] = Meta{Kind: core.KindKVCache, Size: 8 * units.MiB, Lifetime: time.Hour, ReadHot: true}
	}
	ids := make([]ObjectID, len(metas))
	lats := make([]time.Duration, len(metas))
	tiers := make([]int, len(metas))
	var p ReadPlan
	round := func() {
		if n, err := m.PutBatch(metas, ids, lats, tiers); n != len(metas) || err != nil {
			t.Fatalf("PutBatch stored %d of %d: %v", n, len(metas), err)
		}
		p.Reset()
		for _, id := range ids {
			if err := m.PlanAppend(&p, id); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := m.GetPlanned(&p); n != len(ids) || err != nil {
			t.Fatalf("GetPlanned read %d of %d: %v", n, len(ids), err)
		}
		for _, id := range ids {
			if err := m.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a put-plan-read-delete round of 8 pages allocates %v times, want 0", allocs)
	}
	if m.NumObjects() != 0 {
		t.Fatalf("%d objects left after the rounds", m.NumObjects())
	}
	if err := m.tiers[0].(*DeviceTier).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
