package controller

import (
	"testing"
	"time"

	"mrm/internal/memdev"
	"mrm/internal/units"
)

func newTwinZoned(t *testing.T) (*Zoned, *Zoned) {
	t.Helper()
	mk := func() *Zoned {
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
		for id := 0; id < 4; id++ {
			if err := z.Open(id, time.Hour); err != nil {
				t.Fatal(err)
			}
			if _, err := appendOne(z, id, 2*units.MiB); err != nil {
				t.Fatal(err)
			}
		}
		return z
	}
	return mk(), mk()
}

// TestReadSpanMatchesRead checks the contract that lets the control plane
// validate a read once and issue it to the device later: for every request,
// valid or not, ReadSpan fails exactly when Read fails, with the same error,
// and a span it accepts costs on the device exactly what Read charges. The
// requests run in sequence and stop at the first failure, so a batch with an
// invalid request in the middle leaves the same device accounting on both
// twins. Core's GetRefs/Get tests pin the batch-level precedence above this.
func TestReadSpanMatchesRead(t *testing.T) {
	type req struct {
		zone      int
		off, size units.Bytes
	}
	cases := [][]req{
		{{0, 0, units.MiB}},
		{{0, 0, units.MiB}, {1, units.MiB, units.MiB}, {3, 0, 2 * units.MiB}},
		// Request 1 reads beyond the write pointer: request 0 must still be
		// charged, request 2 must not be.
		{{0, 0, units.MiB}, {1, 0, 3 * units.MiB}, {2, 0, units.MiB}},
		// Request 0 hits an empty zone: nothing is charged.
		{{5, 0, units.MiB}, {0, 0, units.MiB}},
		// Out-of-range zone id mid-batch.
		{{2, 0, units.MiB}, {99, 0, units.MiB}},
		{{-1, 0, units.MiB}},
	}
	for ci, reqs := range cases {
		seq, spn := newTwinZoned(t)
		for i, r := range reqs {
			want, werr := seq.Read(r.zone, r.off, r.size)
			sp, err := spn.ReadSpan(r.zone, r.off, r.size)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("case %d req %d: ReadSpan err %v, Read err %v", ci, i, err, werr)
			}
			if err != nil {
				break
			}
			got, err := spn.Device().ReadAt(sp.Addr, sp.Size)
			if err != nil || got != want {
				t.Fatalf("case %d req %d: span read %+v (%v), Read %+v", ci, i, got, err, want)
			}
		}
		if ss, sv := seq.Device().Stats(), spn.Device().Stats(); ss != sv {
			t.Fatalf("case %d: device stats diverged: %+v != %+v", ci, ss, sv)
		}
	}
}

// TestEpochMovesOnlyWhenDataCanBecomeUnreadable pins which transitions bump
// Epoch: Reset, expiry, CancelOpen and an AppendVec rollback do; Open,
// Append, a successful AppendVec, reads and a due-nothing ExpireDue don't.
// A span validated by ReadSpan must stay readable while the epoch holds.
func TestEpochMovesOnlyWhenDataCanBecomeUnreadable(t *testing.T) {
	z, _ := newTwinZoned(t)
	step := func(name string, bump bool, f func() error) {
		t.Helper()
		before := z.Epoch()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if moved := z.Epoch() != before; moved != bump {
			t.Fatalf("%s: epoch moved = %v, want %v", name, moved, bump)
		}
	}
	if z.Epoch() == 0 {
		t.Fatal("epoch starts at 0, which a zero stamp would match")
	}
	step("open", false, func() error { return z.Open(4, 30*time.Minute) })
	step("append", false, func() error { _, err := appendOne(z, 4, units.MiB); return err })
	results := make([]memdev.Result, 2)
	step("appendvec", false, func() error {
		_, err := z.AppendVec([]AppendReq{{Zone: 4, Size: units.MiB}, {Zone: 0, Size: units.MiB}}, results)
		return err
	})
	step("read", false, func() error { _, err := z.Read(4, 0, 2*units.MiB); return err })
	step("expire nothing", false, func() error { z.ExpireDue(); return nil })
	step("reset", true, func() error { return z.Reset(1) })
	step("open again", false, func() error { return z.Open(1, time.Hour) })
	step("cancel open", true, func() error { return z.CancelOpen(1) })
	step("expire", true, func() error {
		if err := z.Device().Advance(45 * time.Minute); err != nil {
			return err
		}
		if got := z.ExpireDue(); len(got) != 1 || got[0] != 4 {
			t.Fatalf("ExpireDue = %v, want [4]", got)
		}
		return nil
	})
	if _, err := z.ReadSpan(4, 0, units.MiB); err == nil {
		t.Fatal("expired zone still validates")
	}

	f, _ := newTwinZoned(t)
	f.Device().SetFaults(memdev.FaultConfig{Seed: 1, WriteFaultRate: 1})
	before := f.Epoch()
	if done, err := f.AppendVec([]AppendReq{{Zone: 0, Size: units.MiB}}, results); done != 0 || err == nil {
		t.Fatalf("faulted AppendVec: done %d, err %v", done, err)
	}
	if f.Epoch() == before {
		t.Fatal("AppendVec rollback left the epoch unchanged")
	}
}
