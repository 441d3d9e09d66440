package core

import (
	"testing"
	"time"

	"mrm/internal/units"
)

// newServingMRM builds the MRM tier of the HBMPlusMRM memory system — 384 GiB
// of 64 MiB zones (6,144 zones) in the four default retention classes — and
// loads it like a serving node: 13 GiB of refreshed weights and 64 KV pages
// of 8 MiB (16 tokens of Llama2-7B) under drop-on-expiry.
func newServingMRM(tb testing.TB) *MRM {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Capacity = 384 * units.GiB
	cfg.ZoneSize = 64 * units.MiB
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := m.Put(13*units.GiB, WriteOptions{Kind: KindWeights, Lifetime: 30 * 24 * time.Hour, Policy: PolicyRefresh}); err != nil {
		tb.Fatal(err)
	}
	sizes := make([]units.Bytes, 64)
	for i := range sizes {
		sizes[i] = 8 * units.MiB
	}
	if _, err := m.PutBatch(sizes, kvOpts, make([]ObjectID, len(sizes)), make([]time.Duration, len(sizes))); err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestTickAllocatesNothingWhenIdle pins the housekeeping fast path: a Tick
// in which no object or zone comes due must not allocate.
func TestTickAllocatesNothingWhenIdle(t *testing.T) {
	m := newServingMRM(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Tick(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("idle Tick allocates %v times per call", allocs)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMRMTick measures one millisecond Tick on a loaded serving node
// with nothing coming due: the housekeeping every decode step pays.
func BenchmarkMRMTick(b *testing.B) {
	m := newServingMRM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Tick(time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	if s := m.Stats(); s.Expirations != 0 || s.Refreshes != 0 {
		b.Fatalf("benchmark ran into deadlines: %+v", s)
	}
}

// BenchmarkMRMPutBatch measures storing one batch of eight 8 MiB KV pages and
// deleting it again on a loaded serving node, so every eighth batch fills a
// zone and opens the least-worn empty one. Deleted objects leave the object
// table, but their deadline-heap entries stay until a Tick pops them, so the
// node is rebuilt, off the clock, every 4,096 batches to keep memory flat.
func BenchmarkMRMPutBatch(b *testing.B) {
	sizes := make([]units.Bytes, 8)
	for i := range sizes {
		sizes[i] = 8 * units.MiB
	}
	ids := make([]ObjectID, len(sizes))
	lats := make([]time.Duration, len(sizes))
	m := newServingMRM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 4095 {
			b.StopTimer()
			m = newServingMRM(b)
			b.StartTimer()
		}
		n, err := m.PutBatch(sizes, kvOpts, ids, lats)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids[:n] {
			if err := m.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMRMGetRefs measures one decode step's planned MRM read on a
// loaded serving node: the weights ref (id 0) plus its 64 KV-page refs
// (ids 1–64) per op. No ECC budget is armed, so the BER scan is off, as in
// the serving simulator.
func BenchmarkMRMGetRefs(b *testing.B) {
	m := newServingMRM(b)
	refs := make([]ObjRef, 65)
	for i := range refs {
		r, err := m.ResolveRef(ObjectID(i))
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = r
	}
	if _, err := m.GetRefs(refs); err != nil { // stamps the objects and fills the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := m.GetRefs(refs); err != nil || n != len(refs) {
			b.Fatalf("GetRefs read %d of %d: %v", n, len(refs), err)
		}
	}
}
