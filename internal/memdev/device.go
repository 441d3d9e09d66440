package memdev

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/ecc"
	"mrm/internal/fault"
	"mrm/internal/units"
)

// AccessKind distinguishes reads from writes.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// String names the kind.
func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Result reports the cost of one access.
type Result struct {
	Latency time.Duration // first-byte latency + transfer time
	Energy  units.Energy
	// RawBER is the expected raw bit error rate of the data returned by a
	// read: it reflects wear of the touched blocks and, for managed devices,
	// time since the data was written. The read path evaluates it only to
	// gate the read against an armed ECC budget (SetFaults with a Code), so
	// it is 0 on a device without one, and for writes.
	RawBER float64
}

// EnergyBreakdown accumulates device energy by component.
type EnergyBreakdown struct {
	Read    units.Energy
	Write   units.Energy
	Refresh units.Energy
	Static  units.Energy
}

// Total sums all components.
func (e EnergyBreakdown) Total() units.Energy {
	return e.Read + e.Write + e.Refresh + e.Static
}

// superBlocks is the number of wear blocks summarized by one superblock
// aggregate. Reads consult the aggregates to skip whole superblocks whose
// BER ceiling cannot beat the worst block seen so far; 64 keeps the aggregate
// arrays small while making the typical weight-sized scan ~64x shorter.
const superBlocks = 64

// The BER hot path caches the two expensive RawBER terms separately in
// direct-mapped tables. cellphys.RawBER decomposes exactly into
// floor + WearBERTerm(cycles) + DecayBERTerm(age) (clamped, terms added in
// that order — pinned by cellphys.TestRawBERTermDecompositionExact), and the
// two inputs repeat on different schedules: wear values recur across blocks
// written together (weights are written once; interior blocks all sit at the
// same cycle count), while ages recur within a read because many blocks share
// a lastWrite stamp even as d.now advances every step. Caching each term on
// its own key therefore hits where a combined (cycles, age) memo thrashes.
// A hit returns the exact float the direct call would, so caching never
// changes a computed number.
const (
	berCacheBits = 13
	berCacheSize = 1 << berCacheBits
)

// berTermEnt is one direct-mapped cache slot: a raw 64-bit key (float bits
// for wear, duration ticks for decay) and the cached term value.
type berTermEnt struct {
	key uint64
	val float64
	ok  bool
}

// berCacheIdx maps a key to its direct-mapped slot (fibonacci hashing).
func berCacheIdx(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> (64 - berCacheBits))
}

// Device simulates one memory device instance. It charges latency and energy
// per access, tracks per-block wear, and integrates background (static +
// refresh) power over simulated time via Advance. Device is safe for
// concurrent use.
type Device struct {
	spec      Spec
	wearBlock units.Bytes // granularity at which wear is tracked
	// wearShift is log2(wearBlock) when the block size is a power of two,
	// else -1. Block-range mapping runs once per span on the read hot path;
	// the shift replaces two 64-bit divisions there.
	wearShift int

	mu         sync.Mutex
	now        time.Duration           // simulated device-local time; guarded by mu
	wear       []float64               // write cycles per wear block; guarded by mu
	lastWrite  []time.Duration         // guarded by mu
	energy     EnergyBreakdown         // guarded by mu
	reads      uint64                  // guarded by mu
	writes     uint64                  // guarded by mu
	readBytes  units.Bytes             // guarded by mu
	writeBytes units.Bytes             // guarded by mu
	berParams  cellphys.RawBERParams   // immutable after NewDevice
	op         cellphys.OperatingPoint // fixed operating point from the spec; immutable

	// Superblock aggregates for read-path pruning. sbMaxWear[s] is the exact
	// maximum wear over superblock s (wear only grows, so a max-update on
	// every write keeps it exact). sbMinLastWrite[s] is a conservative lower
	// bound on the minimum lastWrite (lastWrite only moves forward, so a
	// stale bound over-estimates age, over-estimates the BER ceiling, and
	// pruning stays exact); it is tightened to the true minimum whenever a
	// read scans the full superblock, and set exactly when a write covers it.
	sbMaxWear      []float64                // guarded by mu
	sbMinLastWrite []time.Duration          // guarded by mu
	wearTerms      [berCacheSize]berTermEnt // wear-term RawBER cache; guarded by mu
	decayTerms     [berCacheSize]berTermEnt // decay-term RawBER cache; guarded by mu

	// Memo of the pure per-size read cost: the latency/energy arithmetic
	// (float divide + two conversions) shows up in profiles, and a small
	// recently-used table absorbs the steady alternation between the weights
	// read's size and the KV page size. The memo is a pure function of size,
	// so results are bit-identical.
	readCosts [4]readCostEntry // guarded by mu

	// Fault injection (SetFaults). All decisions are pure functions of the
	// fault seed and the read/write counters, so a device's fault sequence is
	// deterministic regardless of goroutine scheduling.
	maxBER     float64         // ECC correction ceiling; 0 disables the check; guarded by mu
	transient  *fault.Injector // guarded by mu
	lapse      *fault.Injector // guarded by mu
	writeFault *fault.Injector // guarded by mu
	// readInjecting/writeInjecting cache whether any injector on that path is
	// armed: Hit is not inlinable (it hashes), so the unarmed hot path would
	// otherwise pay two calls per read just to learn nothing fires.
	readInjecting  bool   // guarded by mu
	writeInjecting bool   // guarded by mu
	uncorrectable  uint64 // total reads returning ErrUncorrectable; guarded by mu
	transients     uint64 // guarded by mu
	lapses         uint64 // guarded by mu
	writeFaults    uint64 // writes returning ErrUncorrectable; guarded by mu
}

// NewDevice creates a device from spec. Wear is tracked per spec.BlockSize
// (or per 2 MiB for byte-addressable devices).
func NewDevice(spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	wb := spec.BlockSize
	if wb == 0 {
		wb = 2 * units.MiB
	}
	n := (spec.Capacity + wb - 1) / wb
	if n == 0 {
		n = 1
	}
	tr := cellphys.ForTechnology(spec.Tech)
	// Derive the fixed operating point implied by the spec: its retention
	// clamped into the technology's legal range.
	ret := spec.Retention
	if ret < tr.MinRetention {
		ret = tr.MinRetention
	}
	if ret > tr.MaxRetention {
		ret = tr.MaxRetention
	}
	op := tr.MustAt(ret)
	// Trust the spec sheet's endurance over the generic curve: products bin
	// and derate cells in ways the curve cannot know.
	op.Endurance = spec.Endurance
	nsb := (int(n) + superBlocks - 1) / superBlocks
	shift := -1
	if wb&(wb-1) == 0 {
		shift = bits.TrailingZeros64(uint64(wb))
	}
	return &Device{
		spec:           spec,
		wearBlock:      wb,
		wearShift:      shift,
		wear:           make([]float64, n),
		lastWrite:      make([]time.Duration, n),
		sbMaxWear:      make([]float64, nsb),
		sbMinLastWrite: make([]time.Duration, nsb),
		berParams:      cellphys.DefaultBER,
		op:             op,
	}, nil
}

// Spec returns the device's specification.
func (d *Device) Spec() Spec { return d.spec }

// FaultConfig arms a device's fault-injection path. The zero value disables
// everything; drivers that never call SetFaults are byte-identical to the
// pre-fault simulator.
type FaultConfig struct {
	// Seed drives the injected-fault streams; decisions are pure functions
	// of (Seed, stream, read index).
	Seed uint64
	// Code and UBERTarget define the device's ECC plan: reads whose
	// worst-block raw BER exceeds Code.MaxBERForUBER(UBERTarget) surface as
	// fault.ErrUncorrectable — the organic failure path where wear or age
	// outruns the code. A zero Code (N == 0) or UBERTarget disables the
	// threshold.
	Code       ecc.CodeSpec
	UBERTarget float64
	// TransientRate is the per-read probability of a transient uncorrectable
	// fault (particle strike, read disturb).
	TransientRate float64
	// LapseRate is the per-read probability that the touched data's
	// retention lapsed before the scrubber reached it: the managed-retention
	// failure mode §4 argues ECC must absorb.
	LapseRate float64
	// WriteFaultRate is the per-write probability of a program failure: the
	// write is charged (latency, energy, wear) but the data did not latch,
	// and the write surfaces fault.ErrUncorrectable so the layer above can
	// retry or degrade at write time.
	WriteFaultRate float64
}

// SetFaults installs (or, with a zero config, removes) fault injection.
func (d *Device) SetFaults(cfg FaultConfig) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maxBER = 0
	if cfg.Code.N > 0 && cfg.UBERTarget > 0 {
		d.maxBER = cfg.Code.MaxBERForUBER(cfg.UBERTarget)
	}
	d.transient = fault.NewInjector(cfg.Seed, cfg.TransientRate)
	d.lapse = fault.NewInjector(cfg.Seed, cfg.LapseRate)
	d.writeFault = fault.NewInjector(cfg.Seed, cfg.WriteFaultRate)
	d.readInjecting = d.transient != nil || d.lapse != nil
	d.writeInjecting = d.writeFault != nil
}

// Now returns the device-local simulated time.
func (d *Device) Now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now
}

// Advance moves simulated time forward, charging static and refresh energy
// for the elapsed window. It is an error to move time backwards.
func (d *Device) Advance(dt time.Duration) error {
	if dt < 0 {
		return fmt.Errorf("memdev: cannot advance time by %v", dt)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now += dt
	d.energy.Static += d.spec.StaticPower.Over(dt)
	d.energy.Refresh += d.spec.RefreshPower().Over(dt)
	return nil
}

func (d *Device) blockRange(addr, size units.Bytes) (first, last int, err error) {
	if size == 0 {
		return 0, 0, fmt.Errorf("memdev: zero-size access")
	}
	if addr+size > d.spec.Capacity {
		return 0, 0, fmt.Errorf("memdev: access [%d, %d) beyond capacity %v",
			addr, addr+size, d.spec.Capacity)
	}
	if d.wearShift >= 0 {
		return int(addr >> uint(d.wearShift)), int((addr + size - 1) >> uint(d.wearShift)), nil
	}
	first = int(addr / d.wearBlock)
	last = int((addr + size - 1) / d.wearBlock)
	return first, last, nil
}

// ReadAt performs a read of size bytes at addr and returns its cost. With
// fault injection armed (SetFaults), a read whose raw BER exceeds the ECC
// plan's budget — organically, or via an injected transient fault or
// retention lapse — returns fault.ErrUncorrectable alongside the cost: the
// access happened and is charged, but the data is lost and the caller must
// degrade (drop + recompute soft state, restore durable state).
func (d *Device) ReadAt(addr, size units.Bytes) (Result, error) {
	first, last, err := d.blockRange(addr, size)
	if err != nil {
		return Result{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readLocked(addr, size, first, last)
}

// Span is one contiguous device access: size bytes starting at addr.
type Span struct {
	Addr, Size units.Bytes
}

// readCostEntry is one slot of the per-size read-cost table: the latency and
// energy of a read of exactly Size bytes (pure functions of the spec).
type readCostEntry struct {
	size units.Bytes
	lat  time.Duration
	e    units.Energy
}

// readCostLocked returns the latency and energy of a size-byte read through
// the recently-used table, computing and remembering the cost on a miss. A
// hit returns the identical floats the direct arithmetic would. Caller holds
// d.mu; size is never zero (blockRange and the fast path reject it first).
func (d *Device) readCostLocked(size units.Bytes) (time.Duration, units.Energy) {
	for i := range d.readCosts {
		if c := &d.readCosts[i]; c.size == size {
			return c.lat, c.e
		}
	}
	lat := d.spec.ReadLatency + d.spec.ReadBW.Time(size)
	e := d.spec.ReadEnergyPerBit.PerBit(size)
	copy(d.readCosts[1:], d.readCosts[:len(d.readCosts)-1])
	d.readCosts[0] = readCostEntry{size: size, lat: lat, e: e}
	return lat, e
}

// ReadSpans performs the reads described by spans exactly as if ReadAt were
// called once per span in order — each span is a distinct logical read with
// its own latency, energy, read-counter increment, and fault check — but
// under a single lock acquisition. It returns the number of spans completed
// and their total latency; when done < len(spans), err is span done's error
// (an uncorrectable span is charged on the device, as ReadAt charges it, but
// left out of lat and *acc). Spans after a failure are not charged, matching
// a caller that stops issuing ReadAt calls at the first error. With acc
// non-nil, each completed span's energy is added to *acc in span order: the
// float sum a loop over ReadAt's results gives.
//
// With no injector armed and no ECC budget, a read's only effects are its
// memoized per-size cost and the counters, so the fast loop charges exactly
// those per run of equal-size spans — the run's latency as one exact integer
// product — without touching the wear arrays (blockRange's range is only
// consumed by the BER scan and the error text, and the fast loop re-checks
// the same bounds).
func (d *Device) ReadSpans(spans []Span, acc *units.Energy) (done int, lat time.Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.readInjecting && d.maxBER == 0 {
		capacity := d.spec.Capacity
		for i := 0; i < len(spans); {
			size := spans[i].Size
			if size == 0 || spans[i].Addr+size > capacity {
				// Rare: surface blockRange's exact error with the slow path's
				// partial charge (spans before i are charged, i is not).
				_, _, err := d.blockRange(spans[i].Addr, size)
				return i, lat, err
			}
			j := i + 1
			for j < len(spans) && spans[j].Size == size && spans[j].Addr+size <= capacity {
				j++
			}
			l, e := d.readCostLocked(size)
			lat += time.Duration(j-i) * l
			d.chargeRunLocked(SizeRun{Size: size, N: j - i}, e, acc)
			i = j
		}
		return len(spans), lat, nil
	}
	for i, sp := range spans {
		first, last, err := d.blockRange(sp.Addr, sp.Size)
		if err != nil {
			return i, lat, err
		}
		res, err := d.readLocked(sp.Addr, sp.Size, first, last)
		if err != nil {
			return i, lat, err
		}
		lat += res.Latency
		if acc != nil {
			*acc += res.Energy
		}
	}
	return len(spans), lat, nil
}

// SizeRun is N consecutive reads of Size bytes each.
type SizeRun struct {
	Size units.Bytes
	N    int
}

// ReadRunsQuiet charges runs exactly as ReadSpans' fast path charges spans of
// those sizes in order — counters, read energy and *acc bitwise equal — in
// O(1) per run; end is the spans' largest end. With an injector or ECC budget
// armed, a run of zero size or negative count, or end beyond capacity it
// charges nothing and returns false.
func (d *Device) ReadRunsQuiet(runs []SizeRun, end units.Bytes, acc *units.Energy) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.readInjecting || d.maxBER > 0 || end > d.spec.Capacity {
		return false
	}
	for _, r := range runs {
		if r.Size == 0 || r.N < 0 {
			return false
		}
	}
	for _, r := range runs {
		_, e := d.readCostLocked(r.Size)
		d.chargeRunLocked(r, e, acc)
	}
	return true
}

// chargeRunLocked charges r.N reads at energy e each; a nil acc is skipped, as
// a sink from 0 would make addRepeated climb every binade. Caller holds d.mu.
func (d *Device) chargeRunLocked(r SizeRun, e units.Energy, acc *units.Energy) {
	d.reads += uint64(r.N)
	d.readBytes += units.Bytes(r.N) * r.Size
	d.energy.Read = addRepeated(d.energy.Read, e, r.N)
	if acc != nil {
		*acc = addRepeated(*acc, e, r.N)
	}
}

// addRepeated returns the float64 that n successive x += e produce, bit for
// bit, in O(binades crossed). In x's binade x = m·u (u = ulp(x), m < 2^53;
// subnormals share the lowest binade's u) and e = (q + r)·u, 0 <= r < 1.
// Below the binade's top every add moves m by δ = q + round(r) — from an even
// m, a tie r = ½ rounds δ up to even — so k adds are one step m + k·δ. Plain
// adds take a binade crossing, a tie from an odd m, x < e and negative or
// non-finite operands; at δ = 0 no add moves x.
func addRepeated(x, e units.Energy, n int) units.Energy {
	if n <= 2 || !(e > 0) || math.IsInf(float64(e), 1) {
		for ; n > 0; n-- {
			x += e
		}
		return x
	}
	const top = 1 << 53
	eExp, eMan := splitFloat(math.Float64bits(float64(e)))
	for ; n > 0; n-- {
		xb := math.Float64bits(float64(x))
		xExp, m := splitFloat(xb)
		s := xExp - eExp // e is eMan/2^s ulps of x
		if xb>>63 != 0 || xb>>52 == 0x7ff || s < 0 {
			x += e
			continue
		}
		if s > 53 { // e < u/2
			return x
		}
		q, rem, half := eMan>>uint(s), eMan&(1<<uint(s)-1), uint64(1)<<uint(s)>>1
		tie := rem == half && s > 0
		if m+q >= top || (tie && m&1 != 0) {
			x += e
			continue
		}
		delta := q
		if rem > half || (tie && q&1 != 0) {
			delta++
		}
		if delta == 0 {
			return x
		}
		// Adds j = 0..k-1 stay in the binade while m + j·δ + q < top.
		k, room := uint64(n), top-1-m-q
		if hi, lo := bits.Mul64(k-1, delta); hi != 0 || lo > room {
			k = room/delta + 1
		}
		m += k * delta
		n -= int(k) - 1
		x = units.Energy(math.Float64frombits(uint64(xExp-1)<<52 + m))
	}
	return x
}

// splitFloat splits non-negative finite float bits into man·2^(exp-1075).
func splitFloat(b uint64) (int, uint64) {
	if exp := int(b >> 52 & 0x7ff); exp > 0 {
		return exp, b&(1<<52-1) | 1<<52
	}
	return 1, b & (1<<52 - 1)
}

// readLocked charges one logical read over blocks [first, last] and runs its
// fault checks. Caller holds d.mu.
func (d *Device) readLocked(addr, size units.Bytes, first, last int) (Result, error) {
	lat, e := d.readCostLocked(size)
	d.energy.Read += e
	d.reads++
	d.readBytes += size
	// The worst-BER scan is the read path's dominant cost; it runs only when
	// an ECC budget gates the read.
	var worst float64
	if d.maxBER > 0 {
		worst = d.worstBERLocked(first, last)
	}
	res := Result{Latency: lat, Energy: e, RawBER: worst}
	if d.readInjecting {
		event := d.reads // monotone, deterministic event index for this read
		if d.transient.Hit(fault.StreamTransient, event) {
			d.transients++
			d.uncorrectable++
			return res, fmt.Errorf("memdev: %s: transient fault on read %d at [%d, %d): %w",
				d.spec.Name, event, addr, addr+size, fault.ErrUncorrectable)
		}
		if d.lapse.Hit(fault.StreamLapse, event) {
			d.lapses++
			d.uncorrectable++
			return res, fmt.Errorf("memdev: %s: retention lapse on read %d at [%d, %d): %w",
				d.spec.Name, event, addr, addr+size, fault.ErrUncorrectable)
		}
	}
	if d.maxBER > 0 && worst > d.maxBER {
		d.uncorrectable++
		return res, fmt.Errorf("memdev: %s: raw BER %.3g exceeds ECC budget %.3g at [%d, %d): %w",
			d.spec.Name, worst, d.maxBER, addr, addr+size, fault.ErrUncorrectable)
	}
	return res, nil
}

// rawBER evaluates cellphys.RawBER for a block with the given wear cycles and
// age, recombining the per-term caches exactly as cellphys.RawBER adds its
// terms: floor + wear + decay, clamped at 0.5. Caller holds d.mu.
func (d *Device) rawBERLocked(cycles float64, age time.Duration) float64 {
	ber := d.berParams.Floor + d.wearTermLocked(cycles) + d.decayTermLocked(age)
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// wearTerm returns cellphys.WearBERTerm(d.op, cycles, d.berParams) through
// the direct-mapped cache; a hit returns the identical float. Caller holds
// d.mu.
func (d *Device) wearTermLocked(cycles float64) float64 {
	if cycles <= 0 || d.op.Endurance <= 0 {
		return 0
	}
	key := math.Float64bits(cycles)
	e := &d.wearTerms[berCacheIdx(key)]
	if e.ok && e.key == key {
		return e.val
	}
	v := cellphys.WearBERTerm(d.op, cycles, d.berParams)
	*e = berTermEnt{key: key, val: v, ok: true}
	return v
}

// decayTerm returns cellphys.DecayBERTerm(d.op, age, d.berParams) through the
// direct-mapped cache; a hit returns the identical float. Caller holds d.mu.
func (d *Device) decayTermLocked(age time.Duration) float64 {
	if age <= 0 || d.op.Retention <= 0 {
		return 0
	}
	key := uint64(age)
	e := &d.decayTerms[berCacheIdx(key)]
	if e.ok && e.key == key {
		return e.val
	}
	v := cellphys.DecayBERTerm(d.op, age, d.berParams)
	*e = berTermEnt{key: key, val: v, ok: true}
	return v
}

// worstBERLocked reports the exact maximum RawBER over blocks [first, last].
// It walks the range superblock by superblock: for a fully-covered superblock
// it first evaluates the BER ceiling at the aggregate (max wear, max age)
// corner — by RawBER's monotonicity contract no block inside can exceed it —
// and skips the superblock outright when the ceiling cannot beat the worst
// block already seen (ties are safe to skip: a block equal to the current
// worst leaves the maximum unchanged). Only superblocks whose ceiling is
// competitive are scanned block by block, so a uniform weight-sized read
// costs O(superblocks) instead of O(blocks) while reporting the identical
// worst BER. Caller holds d.mu.
func (d *Device) worstBERLocked(first, last int) float64 {
	worst := 0.0
	lastIdx := len(d.wear) - 1
	// Last-value memo: blocks written by one WriteAt share (wear, lastWrite),
	// so runs of identical inputs skip even the term-cache lookups. rawBER is a
	// pure function of its inputs, so the memo returns the identical float.
	var memoCyc float64
	var memoAge time.Duration
	var memoBER float64
	memoOK := false
	blockBER := func(cycles float64, age time.Duration) float64 {
		if memoOK && cycles == memoCyc && age == memoAge {
			return memoBER
		}
		v := d.rawBERLocked(cycles, age)
		memoCyc, memoAge, memoBER, memoOK = cycles, age, v, true
		return v
	}
	for b := first; b <= last; {
		sb := b / superBlocks
		sbFirst := sb * superBlocks
		sbLast := min(sbFirst+superBlocks-1, lastIdx)
		if b == sbFirst && sbLast <= last {
			// Fully-covered superblock: try to prune via the ceiling.
			maxAge := d.now - d.sbMinLastWrite[sb]
			if maxAge < 0 {
				maxAge = 0
			}
			bound := d.rawBERLocked(d.sbMaxWear[sb], maxAge)
			if bound <= worst {
				b = sbLast + 1
				continue
			}
			// Scan, tightening the lastWrite bound to the true minimum so the
			// next read's ceiling is tighter.
			minLW := d.lastWrite[b]
			for i := b; i <= sbLast; i++ {
				if lw := d.lastWrite[i]; lw < minLW {
					minLW = lw
				}
				age := d.now - d.lastWrite[i]
				if age < 0 {
					age = 0
				}
				if ber := blockBER(d.wear[i], age); ber > worst {
					worst = ber
				}
			}
			d.sbMinLastWrite[sb] = minLW
			b = sbLast + 1
			continue
		}
		// Partial superblock at the range edge: scan it directly.
		end := min(sbLast, last)
		for i := b; i <= end; i++ {
			age := d.now - d.lastWrite[i]
			if age < 0 {
				age = 0
			}
			if ber := blockBER(d.wear[i], age); ber > worst {
				worst = ber
			}
		}
		b = end + 1
	}
	return worst
}

// WriteAt performs a write of size bytes at addr, wearing the touched blocks.
// With fault injection armed (SetFaults), a write hit by the program-failure
// process returns fault.ErrUncorrectable alongside the cost: the pulse
// happened and is fully charged (latency, energy, wear), but the data did not
// latch and the caller must retry elsewhere or degrade.
func (d *Device) WriteAt(addr, size units.Bytes) (Result, error) {
	first, last, err := d.blockRange(addr, size)
	if err != nil {
		return Result{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeLocked(addr, size, first, last)
}

// WriteSpans performs the writes described by spans exactly as if WriteAt
// were called once per span in order — each span is a distinct logical write
// with its own latency, energy, wear charging, write-counter increment, and
// fault check — but under a single lock acquisition, with the superblock
// wear-aggregate folding batched across each span's interior blocks.
// results[i] (len(results) must be >= len(spans)) receives span i's cost. It
// returns the index of the first span that failed (with its error;
// results[done] still carries the charged cost of a faulted write), or
// (len(spans), nil) when every span succeeded. Spans after a failure are not
// charged, matching a caller that stops issuing WriteAt calls at the first
// error.
func (d *Device) WriteSpans(spans []Span, results []Result) (int, error) {
	if len(results) < len(spans) {
		return 0, fmt.Errorf("memdev: WriteSpans: %d results for %d spans", len(results), len(spans))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, sp := range spans {
		first, last, err := d.blockRange(sp.Addr, sp.Size)
		if err != nil {
			results[i] = Result{}
			return i, err
		}
		res, err := d.writeLocked(sp.Addr, sp.Size, first, last)
		results[i] = res
		if err != nil {
			return i, err
		}
	}
	return len(spans), nil
}

// writeLocked charges one logical write over blocks [first, last] and runs
// its fault check. Caller holds d.mu.
func (d *Device) writeLocked(addr, size units.Bytes, first, last int) (Result, error) {
	lat := d.spec.WriteLatency + d.spec.WriteBW.Time(size)
	e := d.spec.WriteEnergyPerBit.PerBit(size)
	d.energy.Write += e
	d.writes++
	d.writeBytes += size
	// Charge fractional wear proportional to how much of the block the write
	// covers, so small writes do not count as full-block cycles. Only the two
	// edge blocks can be partially covered; every interior block's coverage
	// is exactly wearBlock, so its update is wear += 1.0 — bit-identical to
	// overlap(...)/wearBlock without computing either. The same pass keeps
	// the superblock max-wear aggregates exact (wear only grows, so folding
	// each touched block into a running max preserves the true maximum).
	curSB := -1
	curMax := 0.0
	for b := first; b <= last; b++ {
		if sb := b / superBlocks; sb != curSB {
			if curSB >= 0 && curMax > d.sbMaxWear[curSB] {
				d.sbMaxWear[curSB] = curMax
			}
			curSB, curMax = sb, d.sbMaxWear[sb]
		}
		if b == first || b == last {
			bStart := units.Bytes(b) * d.wearBlock
			cover := overlap(addr, addr+size, bStart, bStart+d.wearBlock)
			d.wear[b] += float64(cover) / float64(d.wearBlock)
		} else {
			d.wear[b]++
		}
		if d.wear[b] > curMax {
			curMax = d.wear[b]
		}
		d.lastWrite[b] = d.now
	}
	if curSB >= 0 && curMax > d.sbMaxWear[curSB] {
		d.sbMaxWear[curSB] = curMax
	}
	// A superblock fully inside the write has every lastWrite set to now, so
	// its min-lastWrite bound becomes exactly now; partially-covered edge
	// superblocks keep their old (still conservative) bound.
	lastIdx := len(d.wear) - 1
	for sb := first / superBlocks; sb <= last/superBlocks; sb++ {
		sbFirst := sb * superBlocks
		sbLast := min(sbFirst+superBlocks-1, lastIdx)
		if sbFirst >= first && sbLast <= last {
			d.sbMinLastWrite[sb] = d.now
		}
	}
	res := Result{Latency: lat, Energy: e}
	if d.writeInjecting {
		event := d.writes // monotone, deterministic event index for this write
		if d.writeFault.Hit(fault.StreamWriteFault, event) {
			d.writeFaults++
			return res, fmt.Errorf("memdev: %s: program failure on write %d at [%d, %d): %w",
				d.spec.Name, event, addr, addr+size, fault.ErrUncorrectable)
		}
	}
	return res, nil
}

func overlap(a0, a1, b0, b1 units.Bytes) units.Bytes {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// WearSummary reports wear statistics across blocks.
type WearSummary struct {
	MaxCycles  float64
	MeanCycles float64
	// LifeUsed is MaxCycles / endurance: the fraction of device life consumed
	// at the most-worn block.
	LifeUsed float64
}

// Wear returns the current wear summary.
func (d *Device) Wear() WearSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	var maxC, sum float64
	for _, c := range d.wear {
		if c > maxC {
			maxC = c
		}
		sum += c
	}
	mean := sum / float64(len(d.wear))
	return WearSummary{
		MaxCycles:  maxC,
		MeanCycles: mean,
		LifeUsed:   maxC / d.spec.Endurance,
	}
}

// Energy returns the accumulated energy breakdown.
func (d *Device) Energy() EnergyBreakdown {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.energy
}

// Stats reports access counts, bytes moved, and fault events (the counters
// the fault reports aggregate per tier).
type Stats struct {
	Reads, Writes         uint64
	ReadBytes, WriteBytes units.Bytes
	// Uncorrectable is the total reads that returned fault.ErrUncorrectable;
	// TransientFaults and RetentionLapses break out the injected causes (the
	// remainder crossed the ECC BER budget organically).
	Uncorrectable   uint64
	TransientFaults uint64
	RetentionLapses uint64
	// WriteFaults is the total writes that returned fault.ErrUncorrectable
	// (injected program failures); write faults are counted separately from
	// Uncorrectable, which is read-side by definition.
	WriteFaults uint64
}

// Stats returns the access statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Reads: d.reads, Writes: d.writes,
		ReadBytes: d.readBytes, WriteBytes: d.writeBytes,
		Uncorrectable:   d.uncorrectable,
		TransientFaults: d.transients,
		RetentionLapses: d.lapses,
		WriteFaults:     d.writeFaults,
	}
}
