package memdev

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"mrm/internal/fault"
	"mrm/internal/units"
)

// TestWriteSpansMatchesSequentialWriteAt drives two identical fault-armed
// devices through the same logical writes — one call-by-call, one batched —
// and requires identical costs, errors, fault counters, and full wear state.
// This is the write-side mirror of TestReadSpansMatchesSequentialReadAt: the
// contract that lets the layers above coalesce KV-page appends without
// perturbing any seeded golden output.
func TestWriteSpansMatchesSequentialWriteAt(t *testing.T) {
	mk := func() *Device {
		spec := HBM3E
		spec.Capacity = 64 * units.MiB
		d := newTestDevice(t, spec)
		d.SetFaults(FaultConfig{
			Seed:           99,
			WriteFaultRate: 0.05,
		})
		return d
	}
	seq, bat := mk(), mk()
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(16)
		spans := make([]Span, n)
		for i := range spans {
			addr := units.Bytes(rng.Int63n(int64(seq.spec.Capacity - 4096)))
			spans[i] = Span{Addr: addr, Size: 1 + units.Bytes(rng.Int63n(4096))}
		}
		// Sequential reference: stop at first error.
		seqResults := make([]Result, n)
		seqDone, seqErr := n, error(nil)
		for i, sp := range spans {
			res, err := seq.WriteAt(sp.Addr, sp.Size)
			seqResults[i] = res
			if err != nil {
				seqDone, seqErr = i, err
				break
			}
		}
		batResults := make([]Result, n)
		batDone, batErr := bat.WriteSpans(spans, batResults)
		if batDone != seqDone {
			t.Fatalf("round %d: WriteSpans done %d, sequential %d", round, batDone, seqDone)
		}
		if (batErr == nil) != (seqErr == nil) ||
			(batErr != nil && batErr.Error() != seqErr.Error()) {
			t.Fatalf("round %d: WriteSpans err %v, sequential %v", round, batErr, seqErr)
		}
		upto := seqDone
		if seqErr != nil {
			upto++ // the failing write's cost is reported too
		}
		for i := 0; i < upto; i++ {
			if batResults[i] != seqResults[i] {
				t.Fatalf("round %d span %d: %+v != %+v", round, i, batResults[i], seqResults[i])
			}
		}
		if gs, gb := seq.Stats(), bat.Stats(); gs != gb {
			t.Fatalf("round %d: stats diverged: %+v != %+v", round, gs, gb)
		}
		if es, eb := seq.Energy(), bat.Energy(); es != eb {
			t.Fatalf("round %d: energy diverged: %+v != %+v", round, es, eb)
		}
		// Wear state must be bit-identical too: per-block wear and lastWrite,
		// and the superblock aggregates the read path prunes with.
		for b := 0; b < seq.blocks; b++ {
			sw, slw := seq.blockLocked(b)
			bw, blw := bat.blockLocked(b)
			if sw != bw || slw != blw {
				t.Fatalf("round %d block %d: wear (%v, %v) != (%v, %v)", round, b, sw, slw, bw, blw)
			}
		}
		for sb := range seq.chunks {
			sw, slw := seq.superblockLocked(sb)
			bw, blw := bat.superblockLocked(sb)
			if sw != bw || slw != blw || (seq.chunks[sb] == nil) != (bat.chunks[sb] == nil) {
				t.Fatalf("round %d superblock %d aggregates diverged", round, sb)
			}
		}
		// Advance both clocks so lastWrite stamps vary across rounds.
		dt := time.Duration(rng.Int63n(int64(10 * time.Minute)))
		if err := seq.Advance(dt); err != nil {
			t.Fatal(err)
		}
		if err := bat.Advance(dt); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteSpansValidation(t *testing.T) {
	spec := HBM3E
	spec.Capacity = 8 * units.MiB
	d := newTestDevice(t, spec)
	// Short results slice is rejected outright.
	if _, err := d.WriteSpans(make([]Span, 2), make([]Result, 1)); err == nil {
		t.Fatal("want error for short results slice")
	}
	// A bad span mid-batch charges the prior spans and stops.
	spans := []Span{{0, 1024}, {0, spec.Capacity + 1}, {0, 1024}}
	results := make([]Result, 3)
	done, err := d.WriteSpans(spans, results)
	if done != 1 || err == nil {
		t.Fatalf("done = %d, err = %v; want 1, out-of-bounds error", done, err)
	}
	if st := d.Stats(); st.Writes != 1 || st.WriteBytes != 1024 {
		t.Fatalf("stats after partial batch: %+v; want 1 write of 1024 bytes", st)
	}
}

// TestWriteFaultChargedAndCounted pins the write-fault semantics: the faulted
// write is fully charged (counters, energy, wear) before the error surfaces,
// the error wraps fault.ErrUncorrectable, and an unarmed device never faults.
func TestWriteFaultChargedAndCounted(t *testing.T) {
	spec := HBM3E
	spec.Capacity = 8 * units.MiB
	d := newTestDevice(t, spec)
	d.SetFaults(FaultConfig{Seed: 1, WriteFaultRate: 1})
	res, err := d.WriteAt(0, 4096)
	if !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
	if res.Latency <= 0 || res.Energy <= 0 {
		t.Fatalf("faulted write not charged: %+v", res)
	}
	st := d.Stats()
	if st.Writes != 1 || st.WriteFaults != 1 || st.Uncorrectable != 0 {
		t.Fatalf("stats = %+v; want 1 write, 1 write fault, 0 read uncorrectables", st)
	}
	if d.wearLocked(0) == 0 {
		t.Fatal("faulted write should still wear the block")
	}
	// Zero config disarms: same write never faults.
	d.SetFaults(FaultConfig{})
	if _, err := d.WriteAt(0, 4096); err != nil {
		t.Fatalf("unarmed write failed: %v", err)
	}
}
