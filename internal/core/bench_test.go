package core

import (
	"slices"
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
// with nothing coming due: the housekeeping every decode step pays. The KV
// pages' one-hour deadline falls after 3.6M ticks, so the node is rebuilt,
// off the clock, before a tick would reach it.
func BenchmarkMRMTick(b *testing.B) {
	m := newServingMRM(b)
	next, _ := m.NextDeadline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Now()+time.Millisecond >= next {
			b.StopTimer()
			m = newServingMRM(b)
			next, _ = m.NextDeadline()
			b.StartTimer()
		}
		if err := m.Tick(time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	if s := m.Stats(); s.Expirations != 0 || s.Refreshes != 0 {
		b.Fatalf("benchmark ran into deadlines: %+v", s)
	}
}

// putDeleteBatch stores one batch of eight 8 MiB KV pages on m and deletes it
// again.
func putDeleteBatch(tb testing.TB, m *MRM) {
	var sizes [8]units.Bytes
	for i := range sizes {
		sizes[i] = 8 * units.MiB
	}
	var ids [len(sizes)]ObjectID
	var lats [len(sizes)]time.Duration
	n, err := m.PutBatch(sizes[:], kvOpts, ids[:], lats[:])
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range ids[:n] {
		if err := m.Delete(id); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPutBatchAllocatesOnlyObjects pins the write path's allocations: a
// batch of KV pages put and deleted allocates one object per page and
// nothing else. A page's one extent lives inline in its object, zones only
// count live extents, and the delete takes the page's heap entry with it.
func TestPutBatchAllocatesOnlyObjects(t *testing.T) {
	m := newServingMRM(t)
	putDeleteBatch(t, m) // warms the scratch buffers
	if allocs := testing.AllocsPerRun(1000, func() { putDeleteBatch(t, m) }); allocs != 8 {
		t.Fatalf("a put-delete batch of 8 pages allocates %v times, want 8", allocs)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMRMPutBatch measures storing one batch of eight 8 MiB KV pages and
// deleting it again on a loaded serving node, so every eighth batch fills a
// zone and opens the least-worn empty one.
func BenchmarkMRMPutBatch(b *testing.B) {
	m := newServingMRM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		putDeleteBatch(b, m)
	}
}

// BenchmarkMRMGetRefs measures one decode step's planned MRM read on a
// loaded serving node: the weights ref (id 0) plus its 64 KV-page refs
// (ids 1–64) per op. No ECC budget is armed, so the BER scan is off, as in
// the serving simulator. /cached keeps the refs between calls, as a
// ReadPlan does, so every single-run ref is charged from its cached run;
// /revalidate copies freshly resolved refs over them before each call, so
// every ref goes through its object and is written back — a serving node
// whose finishing requests move the ref key every few steps.
func BenchmarkMRMGetRefs(b *testing.B) {
	m := newServingMRM(b)
	fresh := make([]ObjRef, 65)
	for i := range fresh {
		r, err := m.ResolveRef(ObjectID(i))
		if err != nil {
			b.Fatal(err)
		}
		fresh[i] = r
	}
	refs := slices.Clone(fresh)
	if _, err := m.GetRefs(refs); err != nil { // stamps the objects and fills the scratch
		b.Fatal(err)
	}
	for _, revalidate := range []bool{false, true} {
		name := "cached"
		if revalidate {
			name = "revalidate"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if revalidate {
					copy(refs, fresh)
				}
				if n, err := m.GetRefs(refs); err != nil || n != len(refs) {
					b.Fatalf("GetRefs read %d of %d: %v", n, len(refs), err)
				}
			}
		})
	}
}
