package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mrm/internal/memdev"
	"mrm/internal/units"
)

// oracleGet is Get as it was before reads were vectored and run-charged: the
// liveness check, then one zone Read per extent — validated afresh every
// time — stopping at the first error, with each completed extent's energy
// and latency added in extent order. FuzzMRMReads checks Get and GetRefs
// against it.
func oracleGet(m *MRM, obj *object) (time.Duration, error) {
	if err := obj.liveErr(); err != nil {
		return 0, err
	}
	var total time.Duration
	for _, ext := range obj.extents {
		res, err := m.zoned.Read(ext.zone, ext.off, ext.size)
		if err != nil {
			return 0, err
		}
		m.energy.Read += res.Energy
		total += res.Latency
	}
	m.stats.Gets++
	m.stats.BytesRead += obj.size
	return total, nil
}

// oracleGetID is oracleGet behind Get's id lookup.
func oracleGetID(m *MRM, id ObjectID) (time.Duration, error) {
	obj, ok := m.objects[id]
	if !ok {
		return 0, fmt.Errorf("core: no object %d", id)
	}
	return oracleGet(m, obj)
}

// fuzzOpts are the write options FuzzMRMReads puts with: soft state that
// expires in the 10-minute and 1-hour classes, and refreshed objects in the
// 10-minute and 24-hour classes, so short Ticks drive expiry, zone resets
// and refreshes.
var fuzzOpts = []WriteOptions{
	{Kind: KindKVCache, Lifetime: 5 * time.Minute, Policy: PolicyDrop},
	{Kind: KindKVCache, Lifetime: 45 * time.Minute, Policy: PolicyDrop},
	{Kind: KindWeights, Lifetime: 10 * time.Minute, Policy: PolicyRefresh},
	{Kind: KindWeights, Lifetime: 2 * time.Hour, Policy: PolicyRefresh},
}

// newFuzzMRM builds a small MRM: 48 MiB in 1 MiB zones. No ECC budget is
// armed, so reads take the device's fast path until faults are armed.
func newFuzzMRM(t *testing.T) *MRM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Capacity = 48 * units.MiB
	cfg.ZoneSize = units.MiB
	return newMRM(t, cfg)
}

// sameEnergy reports whether two energy accounts are bitwise equal.
func sameEnergy(a, b EnergyAccount) bool {
	x := [...]units.Energy{a.HostWrite, a.RefreshWrite, a.Read, a.ScrubRead, a.Static}
	y := [...]units.Energy{b.HostWrite, b.RefreshWrite, b.Read, b.ScrubRead, b.Static}
	for i := range x {
		if math.Float64bits(float64(x[i])) != math.Float64bits(float64(y[i])) {
			return false
		}
	}
	return true
}

// FuzzMRMReads drives twin MRMs through an op sequence decoded from the
// input. Both twins see the same puts, batched puts, deletes, Ticks (which
// expire and reset zones and refresh objects), compactions and fault
// arming; reads go through Get and GetRefs on one twin and through
// oracleGet on the other, over refs held across all of those ops with the
// runs GetRefs caches in them kept. After every op the twins must agree on
// the read's count and error text, on Stats, on the energy account
// (bitwise) and on the device counters, and CheckInvariants must pass on
// both — which on m also covers the epoch stamps and run summaries, so an
// object left stamped across a change that should have invalidated it fails
// there, and a ref left cached fails the read comparison.
//
// The first byte seeds the fault streams; each op is then three bytes
// (op, a, b), and a batched put reads one more byte per object. Op errors
// are expected (the sequences are random); only agreement is checked.
func FuzzMRMReads(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		seed := uint64(data[0])
		data = data[1:]
		m, o := newFuzzMRM(t), newFuzzMRM(t) // m reads through Get/GetRefs, o through the oracle
		size := func(b byte) units.Bytes { return units.Bytes(1+int(b)) * 16 * units.KiB }
		id := func(a byte) ObjectID { return ObjectID(int(a) % (int(m.nextID) + 2)) }
		// Refs held across ops, m's and o's in step. mRefs keeps GetRefs'
		// write-backs, as a ReadPlan does, so cached refs meet every later op.
		var mRefs, oRefs, batch []ObjRef
		var picks []int
		var sizes []units.Bytes
		ids := make([]ObjectID, 4)
		lats := make([]time.Duration, 4)
		both := func(step int, op string, f func(x *MRM) error) {
			em, eo := f(m), f(o)
			if fmt.Sprint(em) != fmt.Sprint(eo) {
				t.Fatalf("step %d: %s: twins diverged: %v vs %v", step, op, em, eo)
			}
		}
		for step := 0; len(data) >= 3; step++ {
			op, a, b := data[0]%9, data[1], data[2]
			data = data[3:]
			switch op {
			case 0:
				both(step, "put", func(x *MRM) error {
					_, _, err := x.Put(size(b), fuzzOpts[a%4])
					return err
				})
			case 1:
				sizes = sizes[:0]
				for n := 1 + int(a)%4; n > 0 && len(data) > 0; n-- {
					sizes = append(sizes, size(data[0]))
					data = data[1:]
				}
				both(step, "put batch", func(x *MRM) error {
					n, err := x.PutBatch(sizes, fuzzOpts[b%4], ids, lats)
					return fmt.Errorf("%d: %v", n, err)
				})
			case 2:
				both(step, "delete", func(x *MRM) error { return x.Delete(id(a)) })
			case 3:
				both(step, "tick", func(x *MRM) error { return x.Tick(time.Duration(b) * 30 * time.Second) })
			case 4:
				both(step, "compact", func(x *MRM) error {
					n, err := x.Compact(float64(1+a%9) / 10)
					return fmt.Errorf("%d: %v", n, err)
				})
			case 5:
				cfg := memdev.FaultConfig{Seed: seed<<8 | uint64(a)}
				switch b % 4 {
				case 1:
					cfg.TransientRate = 0.05
				case 2:
					cfg.WriteFaultRate = 0.2
				case 3:
					cfg.TransientRate, cfg.LapseRate, cfg.WriteFaultRate = 0.03, 0.02, 0.1
				}
				for _, x := range []*MRM{m, o} {
					if b%4 == 0 {
						x.zoned.Device().SetFaults(cfg) // all off, ECC budget too: the fast path
					} else {
						x.SetFaults(cfg)
					}
				}
			case 6:
				rm, em := m.ResolveRef(id(a))
				ro, eo := o.ResolveRef(id(a))
				if fmt.Sprint(em) != fmt.Sprint(eo) {
					t.Fatalf("step %d: ResolveRef(%d): %v vs oracle %v", step, id(a), em, eo)
				}
				if em == nil {
					mRefs, oRefs = append(mRefs, rm), append(oRefs, ro)
				}
			case 7:
				if len(mRefs) == 0 {
					continue
				}
				batch, picks = batch[:0], picks[:0]
				wantN, wantErr := 0, error(nil)
				for k := 0; k < 1+int(b)%16; k++ {
					h := (int(a) + k*(1+int(b)/16)) % len(mRefs)
					batch, picks = append(batch, mRefs[h]), append(picks, h)
					if wantErr == nil {
						if _, wantErr = oracleGet(o, oRefs[h].obj); wantErr == nil {
							wantN++
						}
					}
				}
				n, err := m.GetRefs(batch)
				for k, h := range picks {
					mRefs[h] = batch[k]
				}
				if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("step %d: GetRefs = (%d, %v), oracle (%d, %v)", step, n, err, wantN, wantErr)
				}
			case 8:
				lat, err := m.Get(id(a))
				wantLat, wantErr := oracleGetID(o, id(a))
				if lat != wantLat || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("step %d: Get(%d) = (%v, %v), oracle (%v, %v)", step, id(a), lat, err, wantLat, wantErr)
				}
			}
			if sm, so := m.Stats(), o.Stats(); sm != so {
				t.Fatalf("step %d: stats diverged:\n%+v\n%+v", step, sm, so)
			}
			if em, eo := m.Energy(), o.Energy(); !sameEnergy(em, eo) {
				t.Fatalf("step %d: energy diverged:\n%+v\n%+v", step, em, eo)
			}
			if dm, do := m.zoned.Device().Stats(), o.zoned.Device().Stats(); dm != do {
				t.Fatalf("step %d: device stats diverged:\n%+v\n%+v", step, dm, do)
			}
			// A failed put or refresh leaves nothing behind, so both twins
			// must pass after every op, failed ones included.
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := o.CheckInvariants(); err != nil {
				t.Fatalf("step %d: oracle twin: %v", step, err)
			}
		}
	})
}
