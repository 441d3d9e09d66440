package memdev

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/ecc"
	"mrm/internal/units"
)

// worstBERBrute is the pre-pruning reference: the per-block scan ReadAt used
// to run. The property tests assert the pruned fast path reports exactly —
// not approximately — this value.
func worstBERBrute(d *Device, addr, size units.Bytes) float64 {
	first, last, err := d.blockRange(addr, size)
	if err != nil {
		panic(err)
	}
	worst := 0.0
	for b := first; b <= last; b++ {
		age := d.now - d.lastWrite[b]
		if age < 0 {
			age = 0
		}
		ber := cellphys.RawBER(d.op, cellphys.WearState{Cycles: d.wear[b]}, age, d.berParams)
		if ber > worst {
			worst = ber
		}
	}
	return worst
}

// worstBER runs the read path's pruned worst-BER scan over [addr,
// addr+size) — what a read under an ECC budget evaluates — without the read.
func worstBER(t *testing.T, d *Device, addr, size units.Bytes) float64 {
	t.Helper()
	first, last, err := d.blockRange(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.worstBERLocked(first, last)
}

// berTestDevice builds a device with several hundred wear blocks (2 MiB
// each), so ranges can straddle block and superblock boundaries.
func berTestDevice(t *testing.T) *Device {
	t.Helper()
	spec := HBM3E
	spec.Capacity = 640 * units.MiB // 320 wear blocks, 5 superblocks
	return newTestDevice(t, spec)
}

func TestWorstBERPrunedMatchesBruteForce(t *testing.T) {
	d := berTestDevice(t)
	rng := rand.New(rand.NewSource(7))
	cap := d.spec.Capacity
	// Non-uniform wear and age: scattered writes with time advancing in
	// between, so superblocks carry genuinely different aggregates.
	for i := 0; i < 200; i++ {
		addr := units.Bytes(rng.Int63n(int64(cap)))
		size := 1 + units.Bytes(rng.Int63n(int64(cap/8)))
		if addr+size > cap {
			size = cap - addr
		}
		if _, err := d.WriteAt(addr, size); err != nil {
			t.Fatal(err)
		}
		if err := d.Advance(time.Duration(rng.Int63n(int64(time.Hour)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		addr := units.Bytes(rng.Int63n(int64(cap)))
		size := 1 + units.Bytes(rng.Int63n(int64(cap-addr)))
		want := worstBERBrute(d, addr, size)
		if got := worstBER(t, d, addr, size); got != want {
			t.Fatalf("read %d [%d,%d): pruned RawBER %.17g != brute-force %.17g",
				i, addr, addr+size, got, want)
		}
		// Interleave writes so aggregates keep changing under the reads.
		if i%7 == 0 {
			waddr := units.Bytes(rng.Int63n(int64(cap)))
			wsize := 1 + units.Bytes(rng.Int63n(int64(cap-waddr)))
			if _, err := d.WriteAt(waddr, wsize); err != nil {
				t.Fatal(err)
			}
			if err := d.Advance(time.Duration(rng.Int63n(int64(10 * time.Minute)))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestReadStraddlesBlockAndSuperblockBoundaries(t *testing.T) {
	d := berTestDevice(t)
	wb := d.wearBlock
	if _, err := d.WriteAt(0, d.spec.Capacity); err != nil {
		t.Fatal(err)
	}
	if err := d.Advance(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Wear the superblock-1 side of the boundary so the straddling read's
	// worst block lies in exactly one of the two superblocks it touches.
	sbBoundary := units.Bytes(superBlocks) * wb
	for i := 0; i < 5; i++ {
		if _, err := d.WriteAt(sbBoundary, 3*wb); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct{ addr, size units.Bytes }{
		{wb - 1, 2},                          // straddles a block boundary
		{sbBoundary - 1, 2},                  // straddles the superblock boundary
		{sbBoundary - wb/2, wb},              // half a block each side
		{sbBoundary - 10*wb, 20 * wb},        // full blocks both sides
		{0, d.spec.Capacity},                 // whole device
		{wb / 4, wb / 2},                     // interior of one block
		{sbBoundary, units.Bytes(1)},         // first byte of a superblock
		{2*sbBoundary - 1, sbBoundary + 100}, // partial, full, partial superblocks
	}
	for _, c := range cases {
		want := worstBERBrute(d, c.addr, c.size)
		if got := worstBER(t, d, c.addr, c.size); got != want {
			t.Errorf("scan [%d,%d): RawBER %.17g != brute-force %.17g",
				c.addr, c.addr+c.size, got, want)
		}
	}
}

func TestWriteFractionalWearAcrossSuperblockBoundary(t *testing.T) {
	d := berTestDevice(t)
	wb := d.wearBlock
	sbBoundary := units.Bytes(superBlocks) * wb // start of wear block 64
	// Half of block 63, all of block 64, quarter of block 65.
	addr := sbBoundary - wb/2
	size := wb/2 + wb + wb/4
	if _, err := d.WriteAt(addr, size); err != nil {
		t.Fatal(err)
	}
	wantWear := map[int]float64{
		superBlocks - 1: 0.5,
		superBlocks:     1.0,
		superBlocks + 1: 0.25,
	}
	for b, want := range wantWear {
		if got := d.wear[b]; got != want {
			t.Errorf("wear[%d] = %v, want %v", b, got, want)
		}
	}
	if got := d.wear[superBlocks-2]; got != 0 {
		t.Errorf("wear[%d] = %v, want untouched 0", superBlocks-2, got)
	}
	// Aggregates: superblock 0's max wear is 0.5 (block 63), superblock 1's
	// is 1.0 (block 64); neither superblock was fully covered, so the
	// min-lastWrite bounds must keep their conservative value 0.
	if got := d.sbMaxWear[0]; got != 0.5 {
		t.Errorf("sbMaxWear[0] = %v, want 0.5", got)
	}
	if got := d.sbMaxWear[1]; got != 1.0 {
		t.Errorf("sbMaxWear[1] = %v, want 1.0", got)
	}
	if err := d.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(addr, size); err != nil {
		t.Fatal(err)
	}
	if got := d.sbMinLastWrite[0]; got != 0 {
		t.Errorf("sbMinLastWrite[0] = %v, want conservative 0 after partial cover", got)
	}
	if got := d.sbMinLastWrite[1]; got != 0 {
		t.Errorf("sbMinLastWrite[1] = %v, want conservative 0 after partial cover", got)
	}
}

func TestWriteInteriorBlocksWearExactlyOne(t *testing.T) {
	d := berTestDevice(t)
	wb := d.wearBlock
	// Unaligned large write: edge blocks fractional, interior exactly 1.0.
	addr, size := wb/2, 10*wb
	if _, err := d.WriteAt(addr, size); err != nil {
		t.Fatal(err)
	}
	if got := d.wear[0]; got != 0.5 {
		t.Errorf("first-edge wear = %v, want 0.5", got)
	}
	for b := 1; b <= 9; b++ {
		if got := d.wear[b]; got != 1.0 {
			t.Errorf("interior wear[%d] = %v, want exactly 1.0", b, got)
		}
	}
	if got := d.wear[10]; got != 0.5 {
		t.Errorf("last-edge wear = %v, want 0.5", got)
	}
}

func TestWriteFullSuperblockSetsMinLastWrite(t *testing.T) {
	d := berTestDevice(t)
	wb := d.wearBlock
	if err := d.Advance(time.Hour); err != nil {
		t.Fatal(err)
	}
	// Cover superblock 1 entirely (plus slop on both sides).
	addr := units.Bytes(superBlocks)*wb - wb/2
	size := units.Bytes(superBlocks)*wb + wb
	if _, err := d.WriteAt(addr, size); err != nil {
		t.Fatal(err)
	}
	if got := d.sbMinLastWrite[1]; got != time.Hour {
		t.Errorf("sbMinLastWrite[1] = %v, want %v (fully covered)", got, time.Hour)
	}
	if got := d.sbMinLastWrite[0]; got != 0 {
		t.Errorf("sbMinLastWrite[0] = %v, want 0 (only partially covered)", got)
	}
}

func TestReadTightensMinLastWriteBound(t *testing.T) {
	d := berTestDevice(t)
	wb := d.wearBlock
	if err := d.Advance(time.Hour); err != nil {
		t.Fatal(err)
	}
	// Partial write leaves the superblock bound conservatively at 0...
	if _, err := d.WriteAt(0, units.Bytes(superBlocks)*wb/2); err != nil {
		t.Fatal(err)
	}
	if got := d.sbMinLastWrite[0]; got != 0 {
		t.Fatalf("sbMinLastWrite[0] = %v before scan, want 0", got)
	}
	// ...and a full-superblock scan tightens it to the true minimum (still 0
	// here — the second half was never written) while a later full write
	// then raises it exactly.
	worstBER(t, d, 0, units.Bytes(superBlocks)*wb)
	if _, err := d.WriteAt(0, units.Bytes(superBlocks)*wb); err != nil {
		t.Fatal(err)
	}
	worstBER(t, d, 0, units.Bytes(superBlocks)*wb)
	if got := d.sbMinLastWrite[0]; got != time.Hour {
		t.Errorf("sbMinLastWrite[0] = %v after full write + scan, want %v", got, time.Hour)
	}
}

// readSpansTwin builds a written, hour-old 64 MiB device: with armed, under
// an ECC budget with transient and lapse injectors (the per-span path);
// without, with nothing armed (the run-charged fast path).
func readSpansTwin(t *testing.T, armed bool) *Device {
	t.Helper()
	spec := HBM3E
	spec.Capacity = 64 * units.MiB
	d := newTestDevice(t, spec)
	if _, err := d.WriteAt(0, spec.Capacity); err != nil {
		t.Fatal(err)
	}
	if err := d.Advance(time.Hour); err != nil {
		t.Fatal(err)
	}
	if armed {
		d.SetFaults(FaultConfig{
			Seed:          99,
			Code:          ecc.RSSpec(255, 223),
			UBERTarget:    1e-18,
			TransientRate: 0.05,
			LapseRate:     0.03,
		})
	}
	return d
}

// randomSpans draws 1–16 in-range spans; about half repeat the previous
// span's size, so the fast path sees runs longer than one. Every seventh
// round plants a span beyond capacity mid-batch.
func randomSpans(rng *rand.Rand, capacity units.Bytes, round int) []Span {
	spans := make([]Span, 1+rng.Intn(16))
	for i := range spans {
		size := 1 + units.Bytes(rng.Int63n(4096))
		if i > 0 && rng.Intn(2) == 0 {
			size = spans[i-1].Size
		}
		spans[i] = Span{Addr: units.Bytes(rng.Int63n(int64(capacity - 4096))), Size: size}
	}
	if round%7 == 3 {
		spans[len(spans)/2] = Span{Addr: capacity, Size: 1}
	}
	return spans
}

// TestReadSpansMatchesSequentialReadAt drives twin devices through the same
// logical reads — one call-by-call, one batched — and requires the same
// completed count, error, total latency of the completed reads, counters and
// device energy, on a fault-armed device and on an unarmed one, whose fast
// path charges each run's latency as one product. This is the contract that
// lets the cluster layer coalesce KV reads without perturbing the e30 golden
// output.
func TestReadSpansMatchesSequentialReadAt(t *testing.T) {
	for _, armed := range []bool{true, false} {
		seq, bat := readSpansTwin(t, armed), readSpansTwin(t, armed)
		rng := rand.New(rand.NewSource(3))
		runs := 0
		for round := 0; round < 50; round++ {
			spans := randomSpans(rng, seq.spec.Capacity, round)
			// Sequential reference: stop at first error.
			seqDone, seqErr, seqLat := len(spans), error(nil), time.Duration(0)
			for i, sp := range spans {
				if i > 0 && sp.Size == spans[i-1].Size {
					runs++
				}
				res, err := seq.ReadAt(sp.Addr, sp.Size)
				if err != nil {
					seqDone, seqErr = i, err
					break
				}
				seqLat += res.Latency
			}
			batDone, batLat, batErr := bat.ReadSpans(spans, nil)
			if batDone != seqDone || batLat != seqLat {
				t.Fatalf("armed=%v round %d: ReadSpans (%d, %v), sequential (%d, %v)", armed, round, batDone, batLat, seqDone, seqLat)
			}
			if (batErr == nil) != (seqErr == nil) ||
				(batErr != nil && batErr.Error() != seqErr.Error()) {
				t.Fatalf("armed=%v round %d: ReadSpans err %v, sequential %v", armed, round, batErr, seqErr)
			}
			if gs, gb := seq.Stats(), bat.Stats(); gs != gb {
				t.Fatalf("armed=%v round %d: stats diverged: %+v != %+v", armed, round, gs, gb)
			}
			if es, eb := seq.Energy(), bat.Energy(); es != eb {
				t.Fatalf("armed=%v round %d: energy diverged: %+v != %+v", armed, round, es, eb)
			}
		}
		if runs == 0 {
			t.Fatalf("armed=%v: no two adjacent spans share a size; runs are untested", armed)
		}
	}
}

func TestReadSpansValidation(t *testing.T) {
	spec := HBM3E
	spec.Capacity = 8 * units.MiB
	d := newTestDevice(t, spec)
	if _, err := d.WriteAt(0, spec.Capacity); err != nil {
		t.Fatal(err)
	}
	// A bad span mid-batch charges the prior spans and stops.
	spans := []Span{{0, 1024}, {0, spec.Capacity + 1}, {0, 1024}}
	done, lat, err := d.ReadSpans(spans, nil)
	if done != 1 || err == nil {
		t.Fatalf("done = %d, err = %v; want 1, out-of-bounds error", done, err)
	}
	if want := spec.ReadLatency + spec.ReadBW.Time(1024); lat != want {
		t.Fatalf("latency %v; want the one completed read's %v", lat, want)
	}
	if st := d.Stats(); st.Reads != 1 || st.ReadBytes != 1024 {
		t.Fatalf("stats after partial batch: %+v; want 1 read of 1024 bytes", st)
	}
}

// TestReadSpansQuietAccumulatesEnergy pins ReadSpans' energy accumulator
// against the loop a caller would run over ReadAt's results: twin devices
// read the same batches, one call by call summing each completed read's
// Energy, one through ReadSpans(spans, &acc). The sums must be bitwise equal
// — the failing span excluded — on the fault-armed path and on the fast path
// (nothing armed), including a span beyond capacity mid-batch.
func TestReadSpansQuietAccumulatesEnergy(t *testing.T) {
	for _, armed := range []bool{true, false} {
		loop, batch := readSpansTwin(t, armed), readSpansTwin(t, armed)
		rng := rand.New(rand.NewSource(5))
		accLoop, accBatch := units.Energy(0.25), units.Energy(0.25)
		fails := 0
		for round := 0; round < 50; round++ {
			spans := randomSpans(rng, loop.spec.Capacity, round)
			ld, lerr := len(spans), error(nil)
			for i, sp := range spans {
				res, err := loop.ReadAt(sp.Addr, sp.Size)
				if err != nil {
					ld, lerr = i, err
					break
				}
				accLoop += res.Energy
			}
			bd, _, berr := batch.ReadSpans(spans, &accBatch)
			if bd != ld || (berr == nil) != (lerr == nil) || (berr != nil && berr.Error() != lerr.Error()) {
				t.Fatalf("armed=%v round %d: ReadSpans (%d, %v), ReadAt loop (%d, %v)", armed, round, bd, berr, ld, lerr)
			}
			if lerr != nil {
				fails++
			}
			if math.Float64bits(float64(accBatch)) != math.Float64bits(float64(accLoop)) {
				t.Fatalf("armed=%v round %d: accumulated %v, ReadAt loop sum %v", armed, round, accBatch, accLoop)
			}
			if sl, sb := loop.Stats(), batch.Stats(); sl != sb {
				t.Fatalf("armed=%v round %d: stats diverged: %+v != %+v", armed, round, sl, sb)
			}
			if el, eb := loop.Energy(), batch.Energy(); el != eb {
				t.Fatalf("armed=%v round %d: energy diverged: %+v != %+v", armed, round, el, eb)
			}
		}
		if fails == 0 {
			t.Fatalf("armed=%v: no batch failed; the failing-span arm is untested", armed)
		}
		if _, _, err := batch.ReadSpans([]Span{{0, 1024}}, nil); err != nil && !armed {
			t.Fatalf("nil accumulator: %v", err)
		}
	}
}
