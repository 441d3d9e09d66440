package tier

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/fault"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// sizePolicy places objects larger than 1 MiB on the last tier and the rest
// on the first, so a fixture decides placement by object size alone.
type sizePolicy struct{}

func (sizePolicy) Name() string { return "size" }

func (sizePolicy) Place(m Meta, tiers []Info) (int, error) {
	if m.Size > units.MiB {
		return len(tiers) - 1, nil
	}
	return 0, nil
}

// twinManagers builds two identically-stocked two-tier managers whose
// objects alternate between tiers, so batched and planned reads must split
// an id list into per-tier runs.
func twinManagers(t *testing.T) (*Manager, *Manager, []ObjectID) {
	t.Helper()
	mk := func() (*Manager, []ObjectID) {
		hbm := smallHBM(t, 4*units.MiB)
		mrm := smallMRMTier(t, units.GiB)
		m, err := NewManager(sizePolicy{}, hbm, mrm)
		if err != nil {
			t.Fatal(err)
		}
		var ids []ObjectID
		for i := 0; i < 12; i++ {
			// Small objects land on HBM, big ones on the MRM tier, so
			// consecutive ids alternate tiers.
			meta := Meta{Kind: core.KindKVCache, Size: 512 * units.KiB, Lifetime: time.Hour}
			if i%2 == 1 {
				meta.Size = 8 * units.MiB
			}
			id, _, err := m.Put(meta)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		return m, ids
	}
	a, idsA := mk()
	b, idsB := mk()
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatal("twin managers diverged during setup")
		}
		ta, _ := a.TierOf(idsA[i])
		tb, _ := b.TierOf(idsB[i])
		if ta != tb || ta != i%2 {
			t.Fatalf("object %d on tiers (%d, %d), want %d on both", i, ta, tb, i%2)
		}
	}
	return a, b, idsA
}

// getLoop reads ids one Get at a time, stopping at the first error: the
// sequential reference every batched and planned read path must match.
func getLoop(m *Manager, ids []ObjectID) (int, error) {
	for i, id := range ids {
		if _, _, err := m.Get(id); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// checkTwins compares the two managers' per-tier read accounting, backend
// traffic, and energy.
func checkTwins(t *testing.T, label string, seq, bat *Manager) {
	t.Helper()
	for tier := range seq.tiers {
		if sr, br := seq.perTierReads[tier], bat.perTierReads[tier]; sr != br {
			t.Fatalf("%s tier %d: perTierReads %v != %v", label, tier, sr, br)
		}
		sr, sw := seq.tiers[tier].Traffic()
		br, bw := bat.tiers[tier].Traffic()
		if sr != br || sw != bw {
			t.Fatalf("%s tier %d: traffic (%v,%v) != (%v,%v)", label, tier, sr, sw, br, bw)
		}
		if se, be := seq.tiers[tier].Energy(), bat.tiers[tier].Energy(); se != be {
			t.Fatalf("%s tier %d: energy %v != %v", label, tier, se, be)
		}
	}
}

// TestBackendGetBatchMatchesGets compares each backend's GetBatch (DeviceTier
// and MRMTier both implement BatchGetter) to a sequential Get loop over the
// same handles on a twin: same done count, same error, same backend traffic
// and energy — including an unknown handle mid-batch.
func TestBackendGetBatchMatchesGets(t *testing.T) {
	seq, bat, ids := twinManagers(t)
	for tier := range seq.tiers {
		var handles []uint64
		for _, id := range ids {
			if p := seq.objects[id]; p.tier == tier {
				handles = append(handles, p.handle)
			}
		}
		batches := [][]uint64{
			handles,
			handles[1:4],
			{handles[0]},
			{handles[1], 9999, handles[2]},
			{},
		}
		for bi, batch := range batches {
			seqDone, seqErr := len(batch), error(nil)
			for i, h := range batch {
				if _, err := seq.tiers[tier].Get(h); err != nil {
					seqDone, seqErr = i, err
					break
				}
			}
			batDone, batErr := bat.tiers[tier].(BatchGetter).GetBatch(batch)
			if batDone != seqDone {
				t.Fatalf("tier %d batch %d: done %d != sequential %d", tier, bi, batDone, seqDone)
			}
			if (batErr == nil) != (seqErr == nil) ||
				(batErr != nil && batErr.Error() != seqErr.Error()) {
				t.Fatalf("tier %d batch %d: err %v != sequential %v", tier, bi, batErr, seqErr)
			}
			checkTwins(t, fmt.Sprintf("tier %d batch %d", tier, bi), seq, bat)
		}
	}
}

// TestMRMTierGetBatchDeviceErrorWins pins GetBatch's error precedence: a
// sequential caller reads the objects before an unknown handle and fails on
// the first faulted read, so a device error in that prefix is returned
// instead of the lookup error.
func TestMRMTierGetBatchDeviceErrorWins(t *testing.T) {
	mrm := smallMRMTier(t, units.GiB)
	h, _, err := mrm.Put(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	mrm.SetFaults(memdev.FaultConfig{Seed: 1, TransientRate: 1})
	n, err := mrm.GetBatch([]uint64{h, 9999})
	if n != 0 || !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("GetBatch = (%d, %v), want (0, the device's uncorrectable read)", n, err)
	}
}

// TestGetBatchRunGrouping checks that a device-tier batch takes the vectored
// path: a batch across N objects costs one device call but N logical reads.
func TestGetBatchRunGrouping(t *testing.T) {
	hbm := smallHBM(t, 64*units.MiB)
	var handles []uint64
	for i := 0; i < 8; i++ {
		h, _, err := hbm.Put(Meta{Kind: core.KindKVCache, Size: units.MiB, Lifetime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	n, err := hbm.GetBatch(handles)
	if err != nil || n != len(handles) {
		t.Fatalf("GetBatch = (%d, %v), want (%d, nil)", n, err, len(handles))
	}
	st := hbm.dev.Stats()
	if st.Reads != uint64(len(handles)) {
		t.Fatalf("device saw %d logical reads, want %d (one per object)", st.Reads, len(handles))
	}
	if st.ReadBytes != units.Bytes(len(handles))*units.MiB {
		t.Fatalf("device read %v bytes, want %v", st.ReadBytes, units.Bytes(len(handles))*units.MiB)
	}
}
