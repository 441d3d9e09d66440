package controller

import (
	"math/rand"
	"testing"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// appendOne appends size bytes to zone id as a one-request AppendVec.
func appendOne(z *Zoned, id int, size units.Bytes) (memdev.Result, error) {
	var res [1]memdev.Result
	_, err := z.AppendVec([]AppendReq{{Zone: id, Size: size}}, res[:])
	return res[0], err
}

// newZonedForAppend builds a zoned controller with a mix of open,
// partially-filled, empty, and full zones, fault-armed after the setup.
func newZonedForAppend(t *testing.T, faults memdev.FaultConfig) *Zoned {
	t.Helper()
	spec := memdev.HBM3E
	spec.Capacity = 64 * units.MiB
	dev, err := memdev.NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewZoned(dev, 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	// Zones 0-3 open; 1 partially filled; 2 nearly full; 4+ left empty.
	for id := 0; id < 4; id++ {
		if err := z.Open(id, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := appendOne(z, 1, units.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(z, 2, 4*units.MiB-512); err != nil {
		t.Fatal(err)
	}
	dev.SetFaults(faults)
	return z
}

// compareAppendTwins runs reqs through fresh controllers three ways: one
// request per AppendVec call, stopping at the first failure; as one batch;
// and as one batch of the prefix the batch stored. The first two must agree
// on done counts, errors, per-request costs, zone state, and device
// accounting. The batch must then leave its zones, free bytes, and
// least-worn empty zone exactly as the prefix twin does, whatever stopped it,
// and pass CheckInvariants. It returns the batch's done count.
func compareAppendTwins(t *testing.T, ci int, faults memdev.FaultConfig, reqs []AppendReq) int {
	t.Helper()
	seq, vec := newZonedForAppend(t, faults), newZonedForAppend(t, faults)
	seqResults := make([]memdev.Result, len(reqs))
	seqDone, seqErr := len(reqs), error(nil)
	for i, r := range reqs {
		res, err := appendOne(seq, r.Zone, r.Size)
		seqResults[i] = res
		if err != nil {
			seqDone, seqErr = i, err
			break
		}
	}
	vecResults := make([]memdev.Result, len(reqs))
	vecDone, vecErr := vec.AppendVec(reqs, vecResults)
	if vecDone != seqDone {
		t.Fatalf("case %d: done %d != one at a time %d (err %v vs %v)", ci, vecDone, seqDone, vecErr, seqErr)
	}
	if (vecErr == nil) != (seqErr == nil) ||
		(vecErr != nil && vecErr.Error() != seqErr.Error()) {
		t.Fatalf("case %d: err %q != one at a time %q", ci, vecErr, seqErr)
	}
	for i := 0; i < seqDone; i++ {
		if vecResults[i] != seqResults[i] {
			t.Fatalf("case %d req %d: %+v != %+v", ci, i, vecResults[i], seqResults[i])
		}
	}
	if ss, sv := seq.Device().Stats(), vec.Device().Stats(); ss != sv {
		t.Fatalf("case %d: device stats diverged: %+v != %+v", ci, ss, sv)
	}
	if es, ev := seq.Device().Energy(), vec.Device().Energy(); es != ev {
		t.Fatalf("case %d: device energy diverged: %+v != %+v", ci, es, ev)
	}
	for id := range seq.zones {
		if seq.zones[id] != vec.zones[id] {
			t.Fatalf("case %d zone %d: %+v != %+v", ci, id, seq.zones[id], vec.zones[id])
		}
	}

	pre := newZonedForAppend(t, faults)
	if n, err := pre.AppendVec(reqs[:vecDone], make([]memdev.Result, vecDone)); n != vecDone || err != nil {
		t.Fatalf("case %d: prefix twin stored %d of %d: %v", ci, n, vecDone, err)
	}
	for id := range pre.zones {
		if pre.zones[id] != vec.zones[id] {
			t.Fatalf("case %d zone %d: %+v, prefix twin %+v", ci, id, vec.zones[id], pre.zones[id])
		}
	}
	if vec.FreeBytes() != pre.FreeBytes() || vec.LeastWornEmpty() != pre.LeastWornEmpty() {
		t.Fatalf("case %d: (free %v, least worn %d), prefix twin (%v, %d)", ci,
			vec.FreeBytes(), vec.LeastWornEmpty(), pre.FreeBytes(), pre.LeastWornEmpty())
	}
	if err := vec.CheckInvariants(); err != nil {
		t.Fatalf("case %d: %v", ci, err)
	}
	return vecDone
}

// TestAppendVecMatchesSequentialAppend checks the batch against one request
// per call — same per-request costs, the same error at the same index, the
// same zone state (write pointers, ZoneFull transitions, WrittenAt stamps),
// and the same device accounting — and the failure contract against the
// prefix twin: an invalid request mid-batch leaves no trace of itself or of
// any later request. It covers repeated appends to one zone within a batch.
func TestAppendVecMatchesSequentialAppend(t *testing.T) {
	cases := [][]AppendReq{
		{{Zone: 0, Size: units.MiB}},
		// Repeated appends to one zone: request 2's validation must see the
		// pointer as advanced by requests 0-1.
		{{Zone: 0, Size: units.MiB}, {Zone: 0, Size: units.MiB}, {Zone: 0, Size: 2 * units.MiB}},
		// Mixed zones, one filling exactly to ZoneFull.
		{{Zone: 0, Size: 4 * units.MiB}, {Zone: 1, Size: 3 * units.MiB}, {Zone: 3, Size: 512}},
		// Request 1 overflows its zone mid-batch: request 0 is stored,
		// request 2 leaves no trace.
		{{Zone: 0, Size: units.MiB}, {Zone: 2, Size: units.MiB}, {Zone: 3, Size: units.MiB}},
		// Append to an empty (never-opened) zone mid-batch.
		{{Zone: 3, Size: units.MiB}, {Zone: 5, Size: units.MiB}, {Zone: 0, Size: units.MiB}},
		// Zero-size append and out-of-range zone id.
		{{Zone: 0, Size: 0}},
		{{Zone: 1, Size: units.MiB}, {Zone: 99, Size: units.MiB}},
		// Zone filled by an earlier request in the same batch, then appended
		// again: the second append must fail with the ZoneFull state error.
		{{Zone: 2, Size: 512}, {Zone: 2, Size: 512}},
	}
	for ci, reqs := range cases {
		compareAppendTwins(t, ci, memdev.FaultConfig{}, reqs)
	}
}

// TestAppendVecMatchesSequentialUnderWriteFaults drives fault-armed
// controllers through random append batches: an injected program failure
// must surface at the same request index, with the same error and device
// counters, as one request per call, and roll the faulted request and every
// later one back in full — its WrittenAt stamp included — to the prefix
// twin's zone state.
func TestAppendVecMatchesSequentialUnderWriteFaults(t *testing.T) {
	faults := memdev.FaultConfig{Seed: 7, WriteFaultRate: 0.15}
	rng := rand.New(rand.NewSource(11))
	faulted := 0
	for round := 0; round < 40; round++ {
		n := 1 + rng.Intn(8)
		reqs := make([]AppendReq, n)
		for i := range reqs {
			reqs[i] = AppendReq{
				Zone: rng.Intn(5),
				Size: units.Bytes(1+rng.Intn(512)) * units.KiB,
			}
		}
		if done := compareAppendTwins(t, round, faults, reqs); done < n {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no batch failed; the fault rate exercised nothing")
	}
}

func TestAppendVecShortResults(t *testing.T) {
	z := newZonedForAppend(t, memdev.FaultConfig{})
	if _, err := z.AppendVec(make([]AppendReq, 2), make([]memdev.Result, 1)); err == nil {
		t.Fatal("want error for short results slice")
	}
}

// BenchmarkZonedAppendVec measures the MRM tier's zone appends at the
// HBMPlusMRM shape (384 GiB of 64 MiB zones, 6,144 zones): per op, one batch
// of eight 8 MiB appends, the device writes of core's BenchmarkMRMPutBatch,
// into the least-worn empty zone, which the batch fills and a Reset then
// returns to empty.
func BenchmarkZonedAppendVec(b *testing.B) {
	spec := memdev.MRMSpec(cellphys.RRAM, 7*24*time.Hour)
	spec.Capacity = 384 * units.GiB
	spec.BlockSize = 64 * units.MiB
	dev, err := memdev.NewDevice(spec)
	if err != nil {
		b.Fatal(err)
	}
	z, err := NewZoned(dev, 64*units.MiB)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]AppendReq, 8)
	results := make([]memdev.Result, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := z.LeastWornEmpty()
		if err := z.Open(id, time.Hour); err != nil {
			b.Fatal(err)
		}
		for k := range reqs {
			reqs[k] = AppendReq{Zone: id, Size: 8 * units.MiB}
		}
		if n, err := z.AppendVec(reqs, results); err != nil || n != len(reqs) {
			b.Fatalf("AppendVec stored %d of %d: %v", n, len(reqs), err)
		}
		if err := z.Reset(id); err != nil {
			b.Fatal(err)
		}
	}
}
