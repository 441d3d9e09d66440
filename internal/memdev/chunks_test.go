package memdev

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/ecc"
	"mrm/internal/fault"
	"mrm/internal/units"
)

// denseModel is the reference for a device's wear state: every block's wear
// and last-write time in plain per-block slices, updated with the textbook
// fractional-cover formula and read with a plain cellphys.RawBER scan.
type denseModel struct {
	d         *Device // spec, operating point and BER parameters
	now       time.Duration
	wear      []float64
	lastWrite []time.Duration
}

func newDenseModel(d *Device) *denseModel {
	return &denseModel{d: d, wear: make([]float64, d.blocks), lastWrite: make([]time.Duration, d.blocks)}
}

func (m *denseModel) write(addr, size units.Bytes) {
	wb := m.d.wearBlock
	for b := addr / wb; b <= (addr+size-1)/wb; b++ {
		m.wear[b] += float64(overlap(addr, addr+size, b*wb, (b+1)*wb)) / float64(wb)
		m.lastWrite[b] = m.now
	}
}

func (m *denseModel) worstBER(addr, size units.Bytes) float64 {
	wb := m.d.wearBlock
	worst := 0.0
	for b := addr / wb; b <= (addr+size-1)/wb; b++ {
		ws := cellphys.WearState{Cycles: m.wear[b]}
		worst = max(worst, cellphys.RawBER(m.d.op, ws, max(m.now-m.lastWrite[b], 0), m.d.berParams))
	}
	return worst
}

func (m *denseModel) wearSummary() WearSummary {
	var maxC, sum float64
	for _, w := range m.wear {
		maxC = max(maxC, w)
		sum += w
	}
	return WearSummary{MaxCycles: maxC, MeanCycles: sum / float64(len(m.wear)), LifeUsed: maxC / m.d.spec.Endurance}
}

// TestChunkedWearMatchesDenseModel drives a device with random writes,
// Advance steps and ECC-armed reads, and a dense per-block model beside it.
// Every read's RawBER and ErrUncorrectable outcome, and every Wear summary,
// must equal the model's bit for bit — including reads over superblocks never
// written (nil chunks) and over the partial last superblock.
func TestChunkedWearMatchesDenseModel(t *testing.T) {
	specs := []Spec{HBM3E, MRMSpec(cellphys.RRAM, time.Hour)}
	for _, spec := range specs {
		spec.Capacity = 4000 * units.MiB // 2000 blocks: 31 full superblocks and one of 16
		d := newTestDevice(t, spec)
		// A budget near 2.4e-5: blocks a fraction of a retention period old
		// pass, older ones fail.
		d.SetFaults(FaultConfig{Code: ecc.RSSpec(255, 247), UBERTarget: 1e-12})
		m := newDenseModel(d)
		rng := rand.New(rand.NewSource(11))
		capacity := spec.Capacity
		var nilReads, fails, passes int
		for op := 0; op < 3000; op++ {
			kind := rng.Intn(4)
			addr := units.Bytes(rng.Int63n(int64(capacity)))
			size := 1 + units.Bytes(rng.Int63n(int64(min(capacity-addr, 8*units.MiB))))
			// One access in eight spans up to the rest of the device; writes
			// stay small for the first two thirds so unwritten superblocks
			// linger.
			if rng.Intn(8) == 0 && (kind >= 2 || op >= 2000) {
				size = 1 + units.Bytes(rng.Int63n(int64(capacity-addr)))
			}
			switch kind {
			case 0:
				if _, err := d.WriteAt(addr, size); err != nil {
					t.Fatal(err)
				}
				m.write(addr, size)
			case 1:
				dt := time.Duration(rng.Int63n(int64(spec.Retention) / 4))
				if err := d.Advance(dt); err != nil {
					t.Fatal(err)
				}
				m.now += dt
			default:
				first, last, _ := d.blockRange(addr, size)
				for sb := first / superBlocks; sb <= last/superBlocks; sb++ {
					if d.chunks[sb] == nil {
						nilReads++
						break
					}
				}
				res, err := d.ReadAt(addr, size)
				want := m.worstBER(addr, size)
				if res.RawBER != want {
					t.Fatalf("%s op %d: read [%d,%d) RawBER %.17g, dense model %.17g", spec.Name, op, addr, addr+size, res.RawBER, want)
				}
				if wantFail := want > d.maxBER; errors.Is(err, fault.ErrUncorrectable) != wantFail || (err != nil && !wantFail) {
					t.Fatalf("%s op %d: read err %v, dense model RawBER %g vs budget %g", spec.Name, op, err, want, d.maxBER)
				}
				if err != nil {
					fails++
				} else {
					passes++
				}
			}
			if got, want := d.Wear(), m.wearSummary(); got != want {
				t.Fatalf("%s op %d: Wear %+v, dense model %+v", spec.Name, op, got, want)
			}
		}
		if nilReads == 0 || fails == 0 || passes == 0 {
			t.Fatalf("%s: %d reads over unwritten superblocks, %d failed, %d passed; want each > 0", spec.Name, nilReads, fails, passes)
		}
		t.Logf("%s: %d reads over unwritten superblocks, %d failed, %d passed", spec.Name, nilReads, fails, passes)
	}
}

// TestWriteAllocatesTouchedChunks pins where wear state lives: a new device
// holds no chunk, one write allocates exactly the chunks of the superblocks
// it touches, a repeat of it allocates nothing, and ECC-armed reads over
// unwritten superblocks allocate no chunk.
func TestWriteAllocatesTouchedChunks(t *testing.T) {
	d := berTestDevice(t) // 5 superblocks
	wb := d.wearBlock
	for sb, c := range d.chunks {
		if c != nil {
			t.Fatalf("new device has a chunk for superblock %d", sb)
		}
	}
	// From the middle of superblock 1's last block to inside superblock 3's
	// first block: touches superblocks 1, 2 and 3.
	addr := units.Bytes(2*superBlocks-1)*wb + wb/2
	size := units.Bytes(superBlocks+1) * wb
	write := func() {
		if _, err := d.WriteAt(addr, size); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for sb, c := range d.chunks {
			if want := sb >= 1 && sb <= 3; (c != nil) != want {
				t.Errorf("%s: superblock %d has a chunk: %v, want %v", when, sb, c != nil, want)
			}
		}
	}
	write()
	check("after the write")
	d.SetFaults(FaultConfig{Code: ecc.RSSpec(255, 223), UBERTarget: 1e-12})
	if _, err := d.ReadAt(0, d.spec.Capacity); err != nil {
		t.Fatal(err)
	}
	check("after a whole-device read")
	if allocs := testing.AllocsPerRun(5, write); allocs != 0 {
		t.Errorf("repeat write: %v allocations, want 0", allocs)
	}
}

// TestNewDeviceFootprint holds a new 192 GiB device's heap to a flat budget:
// wear state and BER caches are allocated on first use, not per capacity.
func TestNewDeviceFootprint(t *testing.T) {
	if got := testing.Benchmark(BenchmarkNewDevice).AllocedBytesPerOp(); got > 64<<10 {
		t.Fatalf("NewDevice allocates %d B, want <= 64 KiB", got)
	}
}
