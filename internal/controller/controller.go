// Package controller models memory controllers at two levels of complexity,
// mirroring the paper's §4 argument:
//
//   - Sched: a conventional DRAM/HBM-style controller with channels, banks,
//     queueing, and mandatory periodic refresh — the machinery MRM gets to
//     delete.
//   - Zoned: the lightweight block-level MRM controller the paper proposes,
//     modeled on zoned storage interfaces (ZNS [60]): append-only zones with
//     per-zone retention programming (the DCM hardware hook). All policy
//     (refresh, wear-leveling, GC) lives in software above this interface.
package controller

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mrm/internal/memdev"
	"mrm/internal/units"
)

// Request is one memory command presented to a scheduler.
type Request struct {
	Kind   memdev.AccessKind
	Addr   units.Bytes
	Size   units.Bytes
	Arrive time.Duration // submission time
}

// Completion reports when and how a request finished.
type Completion struct {
	Start  time.Duration // when service began (>= Arrive)
	Finish time.Duration
}

// Latency is the request's total latency including queueing.
func (c Completion) Latency(r Request) time.Duration { return c.Finish - r.Arrive }

// SchedConfig configures a conventional bank/channel controller.
type SchedConfig struct {
	Spec            memdev.Spec
	Channels        int
	BanksPerChannel int
	// RefreshDuration is how long one per-bank refresh blocks the bank
	// (tRFC-class, ~350 ns for modern DRAM). Refreshes recur every
	// Spec.RefreshInterval / RefreshSlices to spread the array refresh.
	RefreshDuration time.Duration
	RefreshSlices   int
}

// DefaultSchedConfig returns a typical configuration for the spec: 8 channels
// x 4 banks for HBM-class parts, refresh spread over 8192 slices like DRAM.
func DefaultSchedConfig(spec memdev.Spec) SchedConfig {
	return SchedConfig{
		Spec:            spec,
		Channels:        8,
		BanksPerChannel: 4,
		RefreshDuration: 350 * time.Nanosecond,
		RefreshSlices:   8192,
	}
}

// Sched is a simplified FCFS-per-bank memory scheduler. Requests are striped
// across channels by address; each bank serves one request at a time; the
// channel bus serializes data transfer. Refresh periodically steals bank
// time on refreshing devices. Sched is not safe for concurrent use.
type Sched struct {
	cfg       SchedConfig
	bankFree  [][]time.Duration // [channel][bank] next-free time
	busFree   []time.Duration   // [channel]
	stripe    units.Bytes
	bankBW    units.Bandwidth
	refresh   time.Duration // per-bank refresh period (0 = none)
	completed int
	busyUntil time.Duration
	refTime   time.Duration // cumulative time banks spent refreshing
	svcTime   time.Duration // cumulative bank service time (incl. refresh)
}

// NewSched builds a scheduler. The channel stripe is 256 B (HBM pseudo-
// channel granularity rounded to a power of two).
func NewSched(cfg SchedConfig) (*Sched, error) {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 {
		return nil, fmt.Errorf("controller: need positive channels/banks")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	s := &Sched{
		cfg:      cfg,
		bankFree: make([][]time.Duration, cfg.Channels),
		busFree:  make([]time.Duration, cfg.Channels),
		stripe:   256,
		bankBW:   cfg.Spec.ReadBW / units.Bandwidth(cfg.Channels*cfg.BanksPerChannel),
	}
	for i := range s.bankFree {
		s.bankFree[i] = make([]time.Duration, cfg.BanksPerChannel)
	}
	if cfg.Spec.RefreshInterval > 0 && cfg.RefreshSlices > 0 {
		s.refresh = cfg.Spec.RefreshInterval / time.Duration(cfg.RefreshSlices)
	}
	return s, nil
}

// Submit schedules one request and returns its completion. Requests should
// be submitted in non-decreasing Arrive order.
func (s *Sched) Submit(r Request) (Completion, error) {
	if r.Size == 0 {
		return Completion{}, fmt.Errorf("controller: zero-size request")
	}
	ch := int(r.Addr/s.stripe) % s.cfg.Channels
	bank := int(r.Addr/(s.stripe*units.Bytes(s.cfg.Channels))) % s.cfg.BanksPerChannel

	start := max(r.Arrive, s.bankFree[ch][bank], s.busFree[ch])
	var lat time.Duration
	var bw units.Bandwidth
	if r.Kind == memdev.Read {
		lat = s.cfg.Spec.ReadLatency
		bw = s.bankBW
	} else {
		lat = s.cfg.Spec.WriteLatency
		bw = s.bankBW * units.Bandwidth(float64(s.cfg.Spec.WriteBW)/float64(s.cfg.Spec.ReadBW))
	}
	service := lat + bw.Time(r.Size)
	// Refresh tax: every tREFI window (RefreshInterval / RefreshSlices)
	// steals one RefreshDuration (tRFC) of bank time. Refreshes overlapping
	// idle banks are free; only the share proportional to busy time delays
	// requests — the standard utilization derating.
	if s.refresh > 0 {
		steal := time.Duration(float64(service) *
			float64(s.cfg.RefreshDuration) / float64(s.refresh))
		service += steal
		s.refTime += steal
	}
	finish := start + service
	s.svcTime += service
	s.bankFree[ch][bank] = finish
	// The shared bus is busy only for the transfer portion.
	s.busFree[ch] = start + (s.cfg.Spec.ReadBW / units.Bandwidth(s.cfg.Channels)).Time(r.Size)
	s.completed++
	if finish > s.busyUntil {
		s.busyUntil = finish
	}
	return Completion{Start: start, Finish: finish}, nil
}

// Completed returns the number of requests served.
func (s *Sched) Completed() int { return s.completed }

// BusyUntil returns the time the last scheduled request finishes.
func (s *Sched) BusyUntil() time.Duration { return s.busyUntil }

// RefreshTime returns cumulative bank time stolen by refresh.
func (s *Sched) RefreshTime() time.Duration { return s.refTime }

// BankBusyTime returns cumulative bank service time across all banks
// (refresh included); RefreshTime/BankBusyTime is the refresh tax.
func (s *Sched) BankBusyTime() time.Duration { return s.svcTime }

// ZoneState is the lifecycle state of an MRM zone.
type ZoneState int

// Zone states.
const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneFull
	ZoneExpired // retention deadline passed; contents unreliable
)

// String names the state.
func (z ZoneState) String() string {
	switch z {
	case ZoneEmpty:
		return "empty"
	case ZoneOpen:
		return "open"
	case ZoneFull:
		return "full"
	case ZoneExpired:
		return "expired"
	default:
		return fmt.Sprintf("ZoneState(%d)", int(z))
	}
}

// Zone is one append-only region of an MRM device.
type Zone struct {
	ID        int
	Start     units.Bytes
	Size      units.Bytes
	WritePtr  units.Bytes // offset of next append within the zone
	State     ZoneState
	Retention time.Duration // retention programmed for this zone's writes
	WrittenAt time.Duration // device time of the first append
	Resets    int           // wear proxy: zone reset count
}

// Remaining returns the unwritten capacity of the zone.
func (z *Zone) Remaining() units.Bytes { return z.Size - z.WritePtr }

// Zoned is the lightweight MRM block controller: fixed-size append-only
// zones, explicit reset, per-zone retention programming. It owns a
// memdev.Device for cost accounting. Zoned is not safe for concurrent use;
// the control plane above serializes access.
//
// The three questions the control plane asks on its hot path — how much
// space is free, which zones are due to expire, which empty zone is least
// worn — are answered from indexes that every zone state change keeps
// current, never by a scan of all zones.
type Zoned struct {
	dev      *memdev.Device
	zoneSize units.Bytes
	zones    []Zone
	spanBuf  []memdev.Span // scratch for ReadVec/AppendVec, reused across calls
	undoBuf  []appendUndo  // scratch for AppendVec rollback, reused across calls

	free   units.Bytes // bytes in empty zones plus the unwritten tail of open zones
	expiry zoneHeap    // open/full zones holding data under a retention, by (deadline, id)
	empty  zoneHeap    // empty zones, by (resets, id)
}

// NewZoned carves the device into zones of zoneSize bytes.
func NewZoned(dev *memdev.Device, zoneSize units.Bytes) (*Zoned, error) {
	if zoneSize == 0 {
		return nil, fmt.Errorf("controller: zero zone size")
	}
	cap := dev.Spec().Capacity
	n := int(cap / zoneSize)
	if n == 0 {
		return nil, fmt.Errorf("controller: zone size %v exceeds capacity %v", zoneSize, cap)
	}
	z := &Zoned{
		dev:      dev,
		zoneSize: zoneSize,
		zones:    make([]Zone, n),
		free:     units.Bytes(n) * zoneSize,
		expiry:   newZoneHeap(n),
		empty:    newZoneHeap(n),
	}
	for i := range z.zones {
		z.zones[i] = Zone{ID: i, Start: units.Bytes(i) * zoneSize, Size: zoneSize}
		z.empty.add(i, 0)
	}
	return z, nil
}

// NumZones returns the zone count.
func (z *Zoned) NumZones() int { return len(z.zones) }

// Zone returns a snapshot of zone id.
func (z *Zoned) Zone(id int) (Zone, error) {
	if id < 0 || id >= len(z.zones) {
		return Zone{}, fmt.Errorf("controller: zone %d out of range", id)
	}
	return z.zones[id], nil
}

// Device exposes the underlying device (for energy/wear accounting).
func (z *Zoned) Device() *memdev.Device { return z.dev }

// Open transitions an empty zone to open with the given retention class.
// Retention is programmed per zone: this is the hardware half of DCM.
func (z *Zoned) Open(id int, retention time.Duration) error {
	zn, err := z.zoneRef(id)
	if err != nil {
		return err
	}
	if zn.State != ZoneEmpty {
		return fmt.Errorf("controller: zone %d is %v, not empty", id, zn.State)
	}
	zn.State = ZoneOpen
	zn.Retention = retention
	z.empty.remove(id)
	return nil
}

// Append writes size bytes at the zone's write pointer and advances it.
// The zone must be open and have room.
func (z *Zoned) Append(id int, size units.Bytes) (memdev.Result, error) {
	zn, err := z.zoneRef(id)
	if err != nil {
		return memdev.Result{}, err
	}
	if zn.State != ZoneOpen {
		return memdev.Result{}, fmt.Errorf("controller: append to zone %d in state %v", id, zn.State)
	}
	if size == 0 || size > zn.Remaining() {
		return memdev.Result{}, fmt.Errorf("controller: append %v exceeds zone %d remaining %v", size, id, zn.Remaining())
	}
	if zn.WritePtr == 0 {
		zn.WrittenAt = z.dev.Now()
	}
	res, err := z.dev.WriteAt(zn.Start+zn.WritePtr, size)
	if err != nil {
		return memdev.Result{}, err
	}
	z.advance(zn, size)
	return res, nil
}

// Read reads size bytes at offset within zone id. Reading an expired zone
// is an error — the control plane must have refreshed or dropped it.
func (z *Zoned) Read(id int, off, size units.Bytes) (memdev.Result, error) {
	sp, err := z.readSpan(id, off, size)
	if err != nil {
		return memdev.Result{}, err
	}
	return z.dev.ReadAt(sp.Addr, sp.Size)
}

// readSpan validates one zone read and maps it to a device span.
func (z *Zoned) readSpan(id int, off, size units.Bytes) (memdev.Span, error) {
	zn, err := z.zoneRef(id)
	if err != nil {
		return memdev.Span{}, err
	}
	if zn.State == ZoneEmpty {
		return memdev.Span{}, fmt.Errorf("controller: read from empty zone %d", id)
	}
	if zn.State == ZoneExpired {
		return memdev.Span{}, fmt.Errorf("controller: read from expired zone %d", id)
	}
	if off+size > zn.WritePtr {
		return memdev.Span{}, fmt.Errorf("controller: read [%v,%v) beyond write pointer %v", off, off+size, zn.WritePtr)
	}
	return memdev.Span{Addr: zn.Start + off, Size: size}, nil
}

// ReadReq is one zone read within a ReadVec batch.
type ReadReq struct {
	Zone      int
	Off, Size units.Bytes
}

// ReadVec performs the reads described by reqs exactly as if Read were called
// once per request in order — same validation, same per-read device
// accounting and fault events, same error precedence — but coalesces the
// device accesses into a single batched call (one lock acquisition instead
// of one per request). results[i] (len(results) must be >= len(reqs))
// receives request i's cost. It returns the index of the first request that
// failed plus its error, or (len(reqs), nil) on full success. A validation
// failure at request i is reported only after the device reads for requests
// [0, i) have been issued — and a device error among those takes precedence —
// matching a caller that issues Read calls one at a time and stops at the
// first error.
func (z *Zoned) ReadVec(reqs []ReadReq, results []memdev.Result) (int, error) {
	if len(results) < len(reqs) {
		return 0, fmt.Errorf("controller: ReadVec: %d results for %d requests", len(results), len(reqs))
	}
	z.spanBuf = z.spanBuf[:0]
	for i, r := range reqs {
		sp, err := z.readSpan(r.Zone, r.Off, r.Size)
		if err != nil {
			// A sequential caller has already issued the device reads for the
			// earlier, valid requests before hitting this one.
			done, derr := z.dev.ReadSpans(z.spanBuf, results)
			if derr != nil {
				return done, derr
			}
			results[i] = memdev.Result{}
			return i, err
		}
		z.spanBuf = append(z.spanBuf, sp)
	}
	return z.dev.ReadSpans(z.spanBuf, results)
}

// AppendReq is one zone append within an AppendVec batch.
type AppendReq struct {
	Zone int
	Size units.Bytes
}

// appendUndo records the zone mutations AppendVec applied for one request so
// a mid-batch device failure can roll back exactly to what a sequential
// caller would have left behind.
type appendUndo struct {
	zone          *Zone
	size          units.Bytes
	prevState     ZoneState
	prevWrittenAt time.Duration
	stamped       bool // this request stamped WrittenAt (first append to the zone)
}

// AppendVec performs the appends described by reqs exactly as if Append were
// called once per request in order — same validation (against the write
// pointer as advanced by the earlier requests in the batch), same per-write
// device accounting and fault events, same error precedence — but coalesces
// the device writes into a single batched call. results[i] (len(results)
// must be >= len(reqs)) receives request i's cost. It returns the index of
// the first request that failed plus its error, or (len(reqs), nil) on full
// success. A validation failure at request i is reported only after the
// device writes for requests [0, i) have been issued — and a device error
// among those takes precedence. A device write fault leaves its zone exactly
// as a failed sequential Append would: write pointer and state unchanged,
// but the first-append WrittenAt stamp (applied before the device write on
// the sequential path) persists.
func (z *Zoned) AppendVec(reqs []AppendReq, results []memdev.Result) (int, error) {
	if len(results) < len(reqs) {
		return 0, fmt.Errorf("controller: AppendVec: %d results for %d requests", len(results), len(reqs))
	}
	z.spanBuf = z.spanBuf[:0]
	z.undoBuf = z.undoBuf[:0]
	for i, r := range reqs {
		zn, err := z.zoneRef(r.Zone)
		if err == nil {
			if zn.State != ZoneOpen {
				err = fmt.Errorf("controller: append to zone %d in state %v", r.Zone, zn.State)
			} else if r.Size == 0 || r.Size > zn.Remaining() {
				err = fmt.Errorf("controller: append %v exceeds zone %d remaining %v", r.Size, r.Zone, zn.Remaining())
			}
		}
		if err != nil {
			// A sequential caller has already issued (and committed) the device
			// writes for the earlier, valid requests before hitting this one.
			done, derr := z.flushAppends(results)
			if derr != nil {
				return done, derr
			}
			results[i] = memdev.Result{}
			return i, err
		}
		u := appendUndo{zone: zn, size: r.Size, prevState: zn.State, prevWrittenAt: zn.WrittenAt}
		if zn.WritePtr == 0 {
			zn.WrittenAt = z.dev.Now()
			u.stamped = true
		}
		z.spanBuf = append(z.spanBuf, memdev.Span{Addr: zn.Start + zn.WritePtr, Size: r.Size})
		z.advance(zn, r.Size)
		z.undoBuf = append(z.undoBuf, u)
	}
	return z.flushAppends(results)
}

// flushAppends issues the accumulated spans in one device call and, on a
// device failure, rolls the eagerly-applied zone mutations back to the exact
// state a sequential caller stopping at that write would have left.
func (z *Zoned) flushAppends(results []memdev.Result) (int, error) {
	done, err := z.dev.WriteSpans(z.spanBuf, results)
	if err != nil {
		for k := len(z.undoBuf) - 1; k >= done; k-- {
			u := &z.undoBuf[k]
			u.zone.WritePtr -= u.size
			u.zone.State = u.prevState
			z.free += u.size
			if u.stamped {
				// Back to an unwritten zone: nothing of it can expire.
				z.expiry.remove(u.zone.ID)
			}
			// The failing request itself keeps its WrittenAt stamp — the
			// sequential path stamps before the device write; requests after it
			// never ran at all.
			if u.stamped && k > done {
				u.zone.WrittenAt = u.prevWrittenAt
			}
		}
	}
	return done, err
}

// advance moves zn's write pointer past size freshly appended bytes, filling
// the zone when it runs out of room. The first append to a zone (stamped at
// WrittenAt by the caller) enters it in the deadline index.
func (z *Zoned) advance(zn *Zone, size units.Bytes) {
	if zn.WritePtr == 0 && zn.Retention > 0 {
		z.expiry.add(zn.ID, int64(deadline(zn)))
	}
	zn.WritePtr += size
	z.free -= size
	if zn.Remaining() == 0 {
		zn.State = ZoneFull
	}
}

// deadline is when zn's data stops being reliable: its first write plus its
// programmed retention, saturated so a retention too long to represent
// never comes due.
func deadline(zn *Zone) time.Duration {
	if zn.Retention > math.MaxInt64-zn.WrittenAt {
		return math.MaxInt64
	}
	return zn.WrittenAt + zn.Retention
}

// CancelOpen reverts an Open on a zone that was never appended to, returning
// it to empty without counting a reset (nothing was written, so no wear).
// It is the planning counterpart to Open: batched writers open zones ahead
// of issuing the device writes and must release the unused ones when a
// mid-batch failure cuts the batch short.
func (z *Zoned) CancelOpen(id int) error {
	zn, err := z.zoneRef(id)
	if err != nil {
		return err
	}
	if zn.State != ZoneOpen || zn.WritePtr != 0 {
		return fmt.Errorf("controller: cannot cancel open of zone %d (state %v, write pointer %v)", id, zn.State, zn.WritePtr)
	}
	zn.State = ZoneEmpty
	zn.Retention = 0
	z.empty.add(id, int64(zn.Resets))
	return nil
}

// Reset returns a zone to empty, incrementing its reset (wear) counter.
func (z *Zoned) Reset(id int) error {
	zn, err := z.zoneRef(id)
	if err != nil {
		return err
	}
	if zn.State == ZoneEmpty {
		return fmt.Errorf("controller: reset of already-empty zone %d", id)
	}
	if zn.State == ZoneOpen {
		z.free += zn.WritePtr
	} else {
		z.free += zn.Size
	}
	z.expiry.remove(id)
	zn.State = ZoneEmpty
	zn.WritePtr = 0
	zn.Retention = 0
	zn.Resets++
	z.empty.add(id, int64(zn.Resets))
	return nil
}

// ExpireDue marks zones whose retention deadline has passed as expired and
// returns their ids in ascending order. The control plane calls this after
// advancing time. It visits only the zones that are due, so a call with
// nothing to expire costs O(1) and allocates nothing.
func (z *Zoned) ExpireDue() []int {
	now := z.dev.Now()
	var expired []int
	for id := z.expiry.min(); id >= 0 && time.Duration(z.expiry.key[id]) <= now; id = z.expiry.min() {
		z.expiry.remove(id)
		zn := &z.zones[id]
		if zn.State == ZoneOpen {
			z.free -= zn.Remaining()
		}
		zn.State = ZoneExpired
		expired = append(expired, id)
	}
	sort.Ints(expired)
	return expired
}

// LeastWornEmpty returns the id of the empty zone with the fewest resets
// (the lowest such id on a tie), or -1 if no zone is empty. This is the
// software wear-leveling primitive.
func (z *Zoned) LeastWornEmpty() int { return z.empty.min() }

// FreeBytes returns the bytes still writable without a reset: all of every
// empty zone plus the unwritten tail of every open zone.
func (z *Zoned) FreeBytes() units.Bytes { return z.free }

// CheckInvariants verifies the incremental indexes against a scan of every
// zone: the free-byte counter, deadline-index membership (exactly the open or
// full zones holding data under a nonzero retention) and keys, and the
// empty-zone index, whose minimum must be the least-worn empty zone. Tests
// call it after workloads.
func (z *Zoned) CheckInvariants() error {
	if err := z.expiry.check(); err != nil {
		return fmt.Errorf("controller: deadline index: %w", err)
	}
	if err := z.empty.check(); err != nil {
		return fmt.Errorf("controller: empty-zone index: %w", err)
	}
	var free units.Bytes
	leastWorn := -1
	for i := range z.zones {
		zn := &z.zones[i]
		switch zn.State {
		case ZoneEmpty:
			free += zn.Size
			if leastWorn < 0 || zn.Resets < z.zones[leastWorn].Resets {
				leastWorn = i
			}
		case ZoneOpen:
			free += zn.Remaining()
		}
		expires := (zn.State == ZoneOpen || zn.State == ZoneFull) && zn.WritePtr > 0 && zn.Retention > 0
		if z.expiry.has(i) != expires {
			return fmt.Errorf("controller: zone %d (%v, write pointer %v, retention %v): in deadline index = %v",
				i, zn.State, zn.WritePtr, zn.Retention, z.expiry.has(i))
		}
		if expires && time.Duration(z.expiry.key[i]) != deadline(zn) {
			return fmt.Errorf("controller: zone %d deadline indexed at %v, want %v", i, time.Duration(z.expiry.key[i]), deadline(zn))
		}
		if z.empty.has(i) != (zn.State == ZoneEmpty) {
			return fmt.Errorf("controller: zone %d (%v): in empty-zone index = %v", i, zn.State, z.empty.has(i))
		}
		if zn.State == ZoneEmpty && z.empty.key[i] != int64(zn.Resets) {
			return fmt.Errorf("controller: zone %d indexed at %d resets, has %d", i, z.empty.key[i], zn.Resets)
		}
	}
	if free != z.free {
		return fmt.Errorf("controller: free counter %v != recount %v", z.free, free)
	}
	if got := z.empty.min(); got != leastWorn {
		return fmt.Errorf("controller: least-worn empty zone indexed as %d, scan finds %d", got, leastWorn)
	}
	return nil
}

// WearSpread returns max and mean zone reset counts; a host wear-leveler
// tries to keep max close to mean.
func (z *Zoned) WearSpread() (maxResets int, meanResets float64) {
	sum := 0
	for i := range z.zones {
		r := z.zones[i].Resets
		sum += r
		if r > maxResets {
			maxResets = r
		}
	}
	return maxResets, float64(sum) / float64(len(z.zones))
}

// ZonesInState returns ids of zones in the given state, sorted.
func (z *Zoned) ZonesInState(st ZoneState) []int {
	var ids []int
	for i := range z.zones {
		if z.zones[i].State == st {
			ids = append(ids, i)
		}
	}
	sort.Ints(ids)
	return ids
}

func (z *Zoned) zoneRef(id int) (*Zone, error) {
	if id < 0 || id >= len(z.zones) {
		return nil, fmt.Errorf("controller: zone %d out of range", id)
	}
	return &z.zones[id], nil
}
