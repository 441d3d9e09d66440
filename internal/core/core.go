// Package core implements the paper's primary contribution: Managed-
// Retention Memory (MRM) — a memory device whose retention time is a
// per-write software decision — together with the software control plane the
// paper's §4 sketches:
//
//   - Retention classes: each write is tagged with a data-lifetime hint and
//     lands in a zone programmed for the cheapest retention that covers it
//     (Dynamically Configurable Memory).
//   - Expiry tracking: the control plane tracks when every zone's data
//     becomes unreliable and decides, per object policy, whether to refresh
//     it (rewrite), drop it (soft state that can be recomputed), or surface
//     it to a higher-level migrator.
//   - Software wear-leveling: new zones are allocated least-worn-first;
//     there is no device FTL (contrast: internal/ftl).
//   - Retention-aware scrub: given the ECC code protecting the array and a
//     target uncorrectable bit error rate, the control plane derives the
//     scrub interval from the cell error model and accounts its cost.
//
// The device below an MRM is a zoned block controller (internal/controller)
// over a simulated memory device (internal/memdev); the retention↔energy↔
// endurance arithmetic comes from internal/cellphys.
package core

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"mrm/internal/cellphys"
	"mrm/internal/controller"
	"mrm/internal/ecc"
	"mrm/internal/fault"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// DataKind is the workload-level role of an object; placement and expiry
// policies key off it.
type DataKind int

// Data kinds from the paper's workload characterization (§2).
const (
	KindWeights    DataKind = iota // immutable, persisted elsewhere, long-lived
	KindKVCache                    // soft state, append-only, lives for a context
	KindActivation                 // transient, lives for one forward pass
	KindOther
)

// String names the kind.
func (k DataKind) String() string {
	switch k {
	case KindWeights:
		return "weights"
	case KindKVCache:
		return "kvcache"
	case KindActivation:
		return "activation"
	default:
		return "other"
	}
}

// ExpiryPolicy says what the control plane does when an object's retention
// deadline approaches.
type ExpiryPolicy int

// Expiry policies.
const (
	// PolicyRefresh rewrites the data into a fresh zone before it decays
	// (for data that must stay resident, e.g. weights).
	PolicyRefresh ExpiryPolicy = iota
	// PolicyDrop lets the data decay; readers get ErrExpired and recompute
	// (KV cache soft state).
	PolicyDrop
)

// String names the policy.
func (p ExpiryPolicy) String() string {
	if p == PolicyRefresh {
		return "refresh"
	}
	return "drop"
}

// ErrExpired is returned by Get for data whose retention lapsed under
// PolicyDrop.
var ErrExpired = errors.New("core: object expired (soft state must be recomputed)")

// ErrNoSpace is returned when no zone can hold a write.
var ErrNoSpace = errors.New("core: device out of zones")

// Config assembles an MRM.
type Config struct {
	Tech     cellphys.Technology
	Capacity units.Bytes
	ZoneSize units.Bytes
	// Classes are the retention durations the device can program, ascending.
	Classes []time.Duration
	// Code is the ECC protecting the array; UBERTarget the reliability goal.
	Code       ecc.CodeSpec
	UBERTarget float64
	// RefreshMargin is the fraction of a retention period before the
	// deadline at which PolicyRefresh objects are rewritten (default 0.05).
	RefreshMargin float64
}

// DefaultConfig returns an RRAM-based MRM with four retention classes
// spanning the KV-cache-to-weights lifetime range the paper discusses.
func DefaultConfig() Config {
	return Config{
		Tech:     cellphys.RRAM,
		Capacity: 48 * units.GiB,
		ZoneSize: 64 * units.MiB,
		Classes: []time.Duration{
			10 * time.Minute, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour,
		},
		Code:          ecc.RSSpec(255, 223),
		UBERTarget:    1e-18,
		RefreshMargin: 0.05,
	}
}

// Class is an index into Config.Classes.
type Class int

// ObjectID names a stored object.
type ObjectID uint64

// WriteOptions describe a Put.
type WriteOptions struct {
	Kind     DataKind
	Lifetime time.Duration // how long the data must stay readable
	Policy   ExpiryPolicy
}

type extent struct {
	zone int
	off  units.Bytes
	size units.Bytes
}

type objState int

const (
	objLive objState = iota
	objExpired
	objDeleted
)

type object struct {
	// spanEpoch is the zoned epoch at which every extent last validated (0:
	// stale); run0 (inline, saving a KV page a second load) and runs
	// run-length encode the validated device spans' sizes, and spanEnd is
	// their largest end.
	spanEpoch uint64
	state     objState
	run0      memdev.SizeRun
	spanEnd   units.Bytes
	size      units.Bytes
	runs      []memdev.SizeRun
	id        ObjectID
	class     Class
	opts      WriteOptions
	extents   []extent
	deadline  time.Duration // when the data must be refreshed or dropped
}

type zoneMeta struct {
	class   Class
	objects map[ObjectID]bool // live objects with extents here
}

// deadlineHeap orders object ids by deadline.
type deadlineItem struct {
	id       ObjectID
	deadline time.Duration
}
type deadlineHeap []deadlineItem

func (h deadlineHeap) Len() int            { return len(h) }
func (h deadlineHeap) Less(i, j int) bool  { return h[i].deadline < h[j].deadline }
func (h deadlineHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *deadlineHeap) Push(x interface{}) { *h = append(*h, x.(deadlineItem)) }
func (h *deadlineHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// EnergyAccount breaks down MRM energy by cause. Write energy varies per
// retention class (the DCM saving), so the account is kept here, not in the
// generic device model.
type EnergyAccount struct {
	HostWrite    units.Energy
	RefreshWrite units.Energy // rewrites performed to extend retention
	Read         units.Energy
	ScrubRead    units.Energy
	Static       units.Energy
}

// Total sums the account.
func (e EnergyAccount) Total() units.Energy {
	return e.HostWrite + e.RefreshWrite + e.Read + e.ScrubRead + e.Static
}

// Stats reports control-plane activity.
type Stats struct {
	Puts, Gets, Deletes int64
	BytesWritten        units.Bytes
	BytesRead           units.Bytes
	BytesRefreshed      units.Bytes
	Refreshes           int64 // object refresh/relocation events
	Expirations         int64 // objects dropped at deadline
	Restores            int64 // refresh reads lost to faults, restored from upstream
	ScrubPasses         int64
	ZoneResets          int64
	Compactions         int64 // zones reclaimed by Compact
}

// MRM is a managed-retention memory with its control plane. Not safe for
// concurrent use: the simulator drives it from one goroutine per device.
type MRM struct {
	cfg      Config
	tradeoff cellphys.Tradeoff
	ops      []cellphys.OperatingPoint // per class
	scrub    []ecc.ScrubPlan           // per class
	zoned    *controller.Zoned

	openZone map[Class]int // currently filling zone per class, -1 if none
	zones    []zoneMeta
	objects  map[ObjectID]*object
	nextID   ObjectID
	heap     deadlineHeap

	lastScrub time.Duration
	energy    EnergyAccount
	stats     Stats

	// gen counts dropExtents calls, the only way a live object's extents
	// change or go; with the zoned epoch it makes the key under which refs
	// cache their runs (see refKey).
	gen uint64

	// Scratch buffers for Get/GetRefs, reused across calls so the read hot
	// path allocates nothing in steady state.
	spanBuf []memdev.Span
	runBuf  []memdev.SizeRun

	// Scratch buffers for PutBatch, reused across calls so the write hot
	// path allocates only per-object state that outlives the call.
	resBuf  []memdev.Result
	putPlan []putChunk
	putEnds []int // per-object end index into putPlan
	putReqs []controller.AppendReq
}

// putChunk is one planned zone append within a PutBatch: enough to rebuild
// the extent, replay open-zone rotation, and roll back an eager zone Open if
// a mid-batch failure means the serial path would never have reached it.
type putChunk struct {
	objIdx    int
	zid       int
	off       units.Bytes
	size      units.Bytes
	opened    bool  // planning this chunk opened zid (empty -> open)
	prevClass Class // zone's class label before the open, for rollback
	fills     bool  // this chunk advances zid to ZoneFull
}

// New builds an MRM from cfg.
func New(cfg Config) (*MRM, error) {
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("core: need at least one retention class")
	}
	if !sort.SliceIsSorted(cfg.Classes, func(i, j int) bool { return cfg.Classes[i] < cfg.Classes[j] }) {
		return nil, fmt.Errorf("core: retention classes must be ascending")
	}
	if cfg.RefreshMargin <= 0 {
		cfg.RefreshMargin = 0.05
	}
	if cfg.RefreshMargin >= 0.5 {
		return nil, fmt.Errorf("core: refresh margin %v too large", cfg.RefreshMargin)
	}
	tr := cellphys.ForTechnology(cfg.Tech)
	ops := make([]cellphys.OperatingPoint, len(cfg.Classes))
	plans := make([]ecc.ScrubPlan, len(cfg.Classes))
	for i, d := range cfg.Classes {
		op, err := tr.At(d)
		if err != nil {
			return nil, fmt.Errorf("core: class %d: %w", i, err)
		}
		ops[i] = op
		// Retention-aware scrub: plan against the class's BER-over-time
		// curve for a fresh (unworn) cell population.
		berAt := func(age time.Duration) float64 {
			return cellphys.RawBER(op, cellphys.WearState{}, age, cellphys.DefaultBER)
		}
		plan, err := ecc.PlanScrub(cfg.Code, berAt, cfg.UBERTarget, d)
		if err != nil {
			return nil, fmt.Errorf("core: class %d scrub plan: %w", i, err)
		}
		plans[i] = plan
	}
	// The device spec is the MRM design point at the *longest* class: its
	// read path, bandwidth and capacity; per-class write costs are applied
	// by the control plane below.
	spec := memdev.MRMSpec(cfg.Tech, cfg.Classes[len(cfg.Classes)-1])
	// Scale per-stack bandwidth and background power with the number of
	// stacks the requested capacity implies (like HBM, aggregate bandwidth
	// grows with stack count).
	stacks := float64(cfg.Capacity) / float64(spec.Capacity)
	if stacks > 1 {
		spec.ReadBW *= units.Bandwidth(stacks)
		spec.WriteBW *= units.Bandwidth(stacks)
		spec.StaticPower *= units.Power(stacks)
	}
	spec.Capacity = cfg.Capacity
	spec.BlockSize = cfg.ZoneSize
	dev, err := memdev.NewDevice(spec)
	if err != nil {
		return nil, err
	}
	zoned, err := controller.NewZoned(dev, cfg.ZoneSize)
	if err != nil {
		return nil, err
	}
	m := &MRM{
		cfg:      cfg,
		tradeoff: tr,
		ops:      ops,
		scrub:    plans,
		zoned:    zoned,
		openZone: make(map[Class]int, len(cfg.Classes)),
		zones:    make([]zoneMeta, zoned.NumZones()),
		objects:  make(map[ObjectID]*object),
	}
	for c := range cfg.Classes {
		m.openZone[Class(c)] = -1
	}
	for i := range m.zones {
		m.zones[i].objects = make(map[ObjectID]bool)
	}
	return m, nil
}

// Classes returns the configured retention classes.
func (m *MRM) Classes() []time.Duration {
	out := make([]time.Duration, len(m.cfg.Classes))
	copy(out, m.cfg.Classes)
	return out
}

// OperatingPoint returns the cell operating point of a class.
func (m *MRM) OperatingPoint(c Class) (cellphys.OperatingPoint, error) {
	if int(c) < 0 || int(c) >= len(m.ops) {
		return cellphys.OperatingPoint{}, fmt.Errorf("core: class %d out of range", c)
	}
	return m.ops[int(c)], nil
}

// ScrubPlan returns the scrub plan of a class.
func (m *MRM) ScrubPlan(c Class) (ecc.ScrubPlan, error) {
	if int(c) < 0 || int(c) >= len(m.scrub) {
		return ecc.ScrubPlan{}, fmt.Errorf("core: class %d out of range", c)
	}
	return m.scrub[int(c)], nil
}

// ChooseClass picks the cheapest class whose retention covers lifetime, or
// the longest class (with refreshes) when lifetime exceeds every class.
// refreshes is how many in-place rewrites the object will need.
func (m *MRM) ChooseClass(lifetime time.Duration) (c Class, refreshes int) {
	for i, d := range m.cfg.Classes {
		if d >= lifetime {
			return Class(i), 0
		}
	}
	last := len(m.cfg.Classes) - 1
	d := m.cfg.Classes[last]
	n := int((lifetime + d - 1) / d)
	return Class(last), n - 1
}

// SetFaults arms fault injection on the underlying device. A zero Code in
// cfg is filled in from the MRM's own ECC plan, so callers need only supply
// the seed and rates.
func (m *MRM) SetFaults(cfg memdev.FaultConfig) {
	if cfg.Code.N == 0 {
		cfg.Code = m.cfg.Code
		cfg.UBERTarget = m.cfg.UBERTarget
	}
	m.zoned.Device().SetFaults(cfg)
}

// Now returns device time.
func (m *MRM) Now() time.Duration { return m.zoned.Device().Now() }

// Capacity returns total device capacity.
func (m *MRM) Capacity() units.Bytes { return m.cfg.Capacity }

// FreeBytes returns the capacity still writable without a zone reset: every
// empty zone plus the unwritten tail of every open zone. The zoned
// controller keeps the count current, so this is O(1).
func (m *MRM) FreeBytes() units.Bytes { return m.zoned.FreeBytes() }

// Put stores an object of the given size with the requested lifetime.
// It returns the object id and the write latency of the slowest extent.
func (m *MRM) Put(size units.Bytes, opts WriteOptions) (ObjectID, time.Duration, error) {
	if size == 0 {
		return 0, 0, fmt.Errorf("core: zero-size object")
	}
	class, _ := m.ChooseClass(opts.Lifetime)
	id := m.nextID
	m.nextID++
	obj := &object{
		id:    id,
		size:  size,
		class: class,
		opts:  opts,
	}
	lat, err := m.appendObject(obj, size, false)
	if err != nil {
		return 0, 0, err
	}
	obj.deadline = m.objectDeadline(obj)
	m.objects[id] = obj
	heap.Push(&m.heap, deadlineItem{id: id, deadline: obj.deadline})
	m.stats.Puts++
	m.stats.BytesWritten += size
	return id, lat, nil
}

// PutBatch stores len(sizes) objects sharing one set of write options exactly
// as if Put were called once per size in order — same object ids, zone
// selection and wear-leveling decisions, chunking, energy accumulation order,
// retention deadlines and heap order, fault-injection decisions, and the same
// error surfaced at the same object index — but issues every device write as
// one vectored append (one device lock acquisition per batch instead of one
// per chunk). ids[i] and lats[i] (both slices must be at least len(sizes)
// long) receive object i's id and worst-extent write latency. It returns the
// number of objects fully stored; when that is < len(sizes), the error is
// what the first-failing Put would have returned, and the control-plane
// residue (consumed ids, charged energy, zone membership of the failing
// object's completed chunks, open-zone rotation) matches the serial path
// bit for bit.
func (m *MRM) PutBatch(sizes []units.Bytes, opts WriteOptions, ids []ObjectID, lats []time.Duration) (int, error) {
	if len(ids) < len(sizes) || len(lats) < len(sizes) {
		return 0, fmt.Errorf("core: PutBatch: %d ids / %d lats for %d sizes", len(ids), len(lats), len(sizes))
	}
	if len(sizes) == 0 {
		return 0, nil
	}
	class, _ := m.ChooseClass(opts.Lifetime)
	startID := m.nextID
	m.putPlan = m.putPlan[:0]
	m.putEnds = m.putEnds[:0]

	// Plan: mirror the serial chunking loop — zone rotation tracked locally,
	// zone Opens applied eagerly (they touch no device state and are rolled
	// back if unreached), every device write deferred to one AppendVec.
	oz := m.openZone[class]
	var zPtr, zRem units.Bytes
	ozLoaded := false
	valErr := error(nil) // validation failure that ends the plan
	idsConsumed := 0     // objects whose id the serial path consumed

plan:
	for i, size := range sizes {
		if size == 0 {
			// The serial path rejects this before consuming an id.
			valErr = fmt.Errorf("core: zero-size object")
			break
		}
		idsConsumed = i + 1
		remaining := size
		for remaining > 0 {
			openedNow := false
			var prevClass Class
			if oz < 0 {
				zid := m.zoned.LeastWornEmpty() // software wear-leveling
				if zid < 0 {
					valErr = ErrNoSpace
					break plan
				}
				if err := m.zoned.Open(zid, m.cfg.Classes[class]); err != nil {
					valErr = err
					break plan
				}
				openedNow = true
				prevClass = m.zones[zid].class
				m.zones[zid].class = class
				oz, zPtr, zRem, ozLoaded = zid, 0, m.cfg.ZoneSize, true
			} else if !ozLoaded {
				zn, err := m.zoned.Zone(oz)
				if err != nil {
					valErr = err
					break plan
				}
				zPtr, zRem, ozLoaded = zn.WritePtr, zn.Remaining(), true
			}
			chunk := remaining
			if chunk > zRem {
				chunk = zRem
			}
			m.putPlan = append(m.putPlan, putChunk{
				objIdx: i, zid: oz, off: zPtr, size: chunk,
				opened: openedNow, prevClass: prevClass, fills: chunk == zRem,
			})
			if chunk == 0 {
				// Degenerate: the open zone has no room. The serial path issues
				// a zero-size append and fails with its error; AppendVec below
				// reproduces it at this request.
				break plan
			}
			zPtr += chunk
			zRem -= chunk
			if zRem == 0 {
				oz = -1
			}
			remaining -= chunk
		}
		m.putEnds = append(m.putEnds, len(m.putPlan))
	}

	m.putReqs = m.putReqs[:0]
	for j := range m.putPlan {
		m.putReqs = append(m.putReqs, controller.AppendReq{Zone: m.putPlan[j].zid, Size: m.putPlan[j].size})
	}
	done, derr := m.zoned.AppendVec(m.putReqs, m.results(len(m.putReqs)))

	op := m.ops[class]
	wbw := m.zoned.Device().Spec().WriteBW
	// Energy: same per-chunk values added in the same order as the serial
	// chunk loop, so the float accumulation is bit-identical.
	for j := 0; j < done; j++ {
		m.energy.HostWrite += op.WriteEnergy.PerBit(m.putPlan[j].size)
	}
	if derr != nil {
		// Zones opened for chunks the serial path never reached go back to
		// empty with no reset charged; the failing chunk's own open stands
		// (serially it happened before the failing device write).
		for j := len(m.putPlan) - 1; j > done; j-- {
			if e := &m.putPlan[j]; e.opened {
				if err := m.zoned.CancelOpen(e.zid); err == nil {
					m.zones[e.zid].class = e.prevClass
				}
			}
		}
	}
	// Open-zone rotation: replay the serial transitions. Chunks before the
	// failure take full effect; the failing chunk's zone selection happened
	// but its fill did not; chunks after it never ran.
	oz = m.openZone[class]
	for j := range m.putPlan {
		if derr != nil && j > done {
			break
		}
		e := &m.putPlan[j]
		if e.opened {
			oz = e.zid
		}
		if e.fills && !(derr != nil && j == done) {
			oz = -1
		}
	}
	m.openZone[class] = oz

	// Register fully-stored objects in id order: same deadlines (WrittenAt
	// stamps are final — later appends in the batch cannot restamp a zone)
	// and same heap push order as the serial path.
	committed, start := 0, 0
	for oi := 0; oi < len(m.putEnds); oi++ {
		end := m.putEnds[oi]
		if end > done {
			break
		}
		id := startID + ObjectID(oi)
		obj := &object{id: id, size: sizes[oi], class: class, opts: opts}
		var worst time.Duration
		for j := start; j < end; j++ {
			e := &m.putPlan[j]
			obj.extents = append(obj.extents, extent{zone: e.zid, off: e.off, size: e.size})
			m.zones[e.zid].objects[id] = true
			if lat := op.WriteLatency + wbw.Time(e.size); lat > worst {
				worst = lat
			}
		}
		obj.deadline = m.objectDeadline(obj)
		m.objects[id] = obj
		heap.Push(&m.heap, deadlineItem{id: id, deadline: obj.deadline})
		m.stats.Puts++
		m.stats.BytesWritten += sizes[oi]
		ids[oi], lats[oi] = id, worst
		start = end
		committed++
	}
	// The failing object's completed chunks keep their zone membership — the
	// residue a failed serial Put leaves behind.
	for j := start; j < done && j < len(m.putPlan); j++ {
		e := &m.putPlan[j]
		m.zones[e.zid].objects[startID+ObjectID(e.objIdx)] = true
	}
	if derr != nil {
		m.nextID = startID + ObjectID(m.putPlan[done].objIdx) + 1
		return committed, derr
	}
	m.nextID = startID + ObjectID(idsConsumed)
	return committed, valErr
}

// appendObject writes size bytes for obj into zones of its class, recording
// extents. refresh marks the energy as refresh housekeeping.
func (m *MRM) appendObject(obj *object, size units.Bytes, refresh bool) (time.Duration, error) {
	op := m.ops[obj.class]
	wbw := m.zoned.Device().Spec().WriteBW // invariant across chunks: hoisted out of the loop
	var worst time.Duration
	obj.spanEpoch = 0 // the extents grow below
	remaining := size
	for remaining > 0 {
		zid := m.openZone[obj.class]
		if zid < 0 {
			zid = m.zoned.LeastWornEmpty() // software wear-leveling
			if zid < 0 {
				return 0, ErrNoSpace
			}
			if err := m.zoned.Open(zid, m.cfg.Classes[obj.class]); err != nil {
				return 0, err
			}
			m.zones[zid].class = obj.class
			m.openZone[obj.class] = zid
		}
		zn, err := m.zoned.Zone(zid)
		if err != nil {
			return 0, err
		}
		chunk := remaining
		if chunk > zn.Remaining() {
			chunk = zn.Remaining()
		}
		off := zn.WritePtr
		if _, err := m.zoned.Append(zid, chunk); err != nil {
			return 0, err
		}
		// Replace the device's generic write energy with the class's DCM
		// write energy (the whole point of programmable retention).
		e := op.WriteEnergy.PerBit(chunk)
		if refresh {
			m.energy.RefreshWrite += e
		} else {
			m.energy.HostWrite += e
		}
		// Write latency: class-specific cell write time + transfer.
		lat := op.WriteLatency + wbw.Time(chunk)
		if lat > worst {
			worst = lat
		}
		obj.extents = append(obj.extents, extent{zone: zid, off: off, size: chunk})
		m.zones[zid].objects[obj.id] = true
		remaining -= chunk
		zn, _ = m.zoned.Zone(zid)
		if zn.State == controller.ZoneFull {
			m.openZone[obj.class] = -1
		}
	}
	return worst, nil
}

// objectDeadline computes when the object's data becomes unreliable: the
// earliest (zone birth + class retention) over its extents. Zone retention is
// anchored at the zone's first write, so data appended into an older zone
// inherits the shorter remaining window.
func (m *MRM) objectDeadline(obj *object) time.Duration {
	ret := m.cfg.Classes[obj.class]
	var deadline time.Duration = 1<<62 - 1
	for _, ext := range obj.extents {
		zn, err := m.zoned.Zone(ext.zone)
		if err != nil {
			continue
		}
		if d := zn.WrittenAt + ret; d < deadline {
			deadline = d
		}
	}
	return deadline
}

// Get reads an object in full, returning read latency. Expired soft state
// yields ErrExpired.
func (m *MRM) Get(id ObjectID) (time.Duration, error) {
	obj, err := m.liveObject(id)
	if err != nil {
		return 0, err
	}
	return m.read(obj)
}

// read is Get past the id lookup. The object's extents — weight-sized objects
// span thousands of zones — are validated and issued as one vectored device
// read: identical per-extent validation, cost, and fault accounting to
// extent-by-extent zone Reads, one lock acquisition instead of one per extent.
func (m *MRM) read(obj *object) (time.Duration, error) {
	if err := obj.liveErr(); err != nil {
		return 0, err
	}
	spans, verr := m.spansOf(obj)
	// A device failure in the valid prefix precedes the validation error.
	_, lat, err := m.zoned.Device().ReadSpans(spans, &m.energy.Read)
	if err == nil {
		err = verr
	}
	if err != nil {
		return 0, err
	}
	m.stats.Gets++
	m.stats.BytesRead += obj.size
	return lat, nil
}

// spansOf validates obj's extents through the zoned controller into the span
// scratch and returns their device spans: the valid prefix, with the error a
// zone Read of the first invalid extent gives. A full pass stamps obj with the
// current epoch, rebuilding its run summary if the stamp was stale.
func (m *MRM) spansOf(obj *object) ([]memdev.Span, error) {
	m.spanBuf = m.spanBuf[:0]
	for _, ext := range obj.extents {
		sp, err := m.zoned.ReadSpan(ext.zone, ext.off, ext.size)
		if err != nil {
			return m.spanBuf, err
		}
		m.spanBuf = append(m.spanBuf, sp)
	}
	if epoch := m.zoned.Epoch(); obj.spanEpoch != epoch {
		obj.run0, obj.runs, obj.spanEnd = summarize(m.spanBuf, obj.runs[:0])
		obj.spanEpoch = epoch
	}
	return m.spanBuf, nil
}

// summarize run-length encodes spans' sizes, runs after the first appended
// to rest, and returns the largest span end.
func summarize(spans []memdev.Span, rest []memdev.SizeRun) (first memdev.SizeRun, _ []memdev.SizeRun, end units.Bytes) {
	for _, sp := range spans {
		end = max(end, sp.Addr+sp.Size)
		switch r := (memdev.SizeRun{Size: sp.Size, N: 1}); {
		case first.N == 0:
			first = r
		case len(rest) == 0 && r.Size == first.Size:
			first.N++
		default:
			rest = appendRun(rest, r)
		}
	}
	return first, rest, end
}

// liveObject resolves id to a readable object, with Get's error contract.
func (m *MRM) liveObject(id ObjectID) (*object, error) {
	obj, ok := m.objects[id]
	if !ok {
		return nil, fmt.Errorf("core: no object %d", id)
	}
	if err := obj.liveErr(); err != nil {
		return nil, err
	}
	return obj, nil
}

// liveErr reports whether the object is readable, with liveObject's exact
// error contract (object ids are never reused, so o.id is the id any lookup
// found it under).
func (o *object) liveErr() error {
	if o.state == objDeleted {
		return fmt.Errorf("core: no object %d", o.id)
	}
	if o.state == objExpired {
		return ErrExpired
	}
	return nil
}

// ObjRef is a reference to a resolved object, for callers that read the
// same objects every step (the serving simulator's KV plans) and want to
// skip the per-read id lookup. Reads through a ref observe expiry and
// deletion exactly like reads by id. GetRefs caches a single-run object's
// validated run and size in the ref itself, stamped with the key it held
// (see refKey), so a caller that keeps its refs between reads lets the
// common case skip the object; a copy of a ref is as good as the original.
type ObjRef struct {
	obj  *object
	key  uint64         // refKey when run and size were cached; 0: not cached
	run  memdev.SizeRun // the object's device reads: run.N spans of run.Size
	size units.Bytes    // the object's size, what Stats.BytesRead adds
}

// ResolveRef resolves id for repeated planned reads. The object must be
// readable now (same errors as Get).
func (m *MRM) ResolveRef(id ObjectID) (ObjRef, error) {
	obj, err := m.liveObject(id)
	if err != nil {
		return ObjRef{}, err
	}
	return ObjRef{obj: obj}, nil
}

// refKey is the key under which GetRefs caches runs in refs now. The zoned
// epoch moves whenever validated spans can stop validating and gen whenever
// an object's extents change or go; both only grow, so every such event
// yields a key never seen before, and the +1 keeps 0 free for "not cached".
func (m *MRM) refKey() uint64 { return m.zoned.Epoch() + m.gen + 1 }

// GetRefs reads the referenced objects exactly as if Get were called once per
// object in order, stopping at the first error, but skips the id lookups,
// which the refs carry pre-resolved. Its common case charges the objects'
// runs (getRefsQuiet), and may rewrite the refs' cached fields in place;
// otherwise it reads each object in turn. It returns the number of objects
// read in full and, when that is < len(refs), the error the first-failing
// Get would have returned.
func (m *MRM) GetRefs(refs []ObjRef) (int, error) {
	if m.getRefsQuiet(refs) {
		return len(refs), nil
	}
	for i := range refs {
		if _, err := m.read(refs[i].obj); err != nil {
			return i, err
		}
	}
	return len(refs), nil
}

// getRefsQuiet is GetRefs' common case: with every ref live and validated,
// it charges their merged runs in one ReadRunsQuiet call, or else charges
// nothing and reports false. A ref cached under the current key is charged
// from its own fields without touching the object. Any other ref goes
// through its object, whose run summary is revalidated only when the zoned
// epoch has moved and rebuilt whenever its extents change, and a single-run
// object's run is written back into the ref. Only objects validated here
// bound the capacity check: a cached run was validated into zone ranges,
// which lie inside the device.
func (m *MRM) getRefsQuiet(refs []ObjRef) bool {
	epoch, key := m.zoned.Epoch(), m.refKey()
	runs := m.runBuf[:0]
	var cur memdev.SizeRun // the run being merged, appended when the size changes
	var end, size units.Bytes
	for i := 0; i < len(refs); {
		// The common case: a stretch of refs cached under the current key
		// whose runs extend cur, read from the refs alone.
		for i < len(refs) && refs[i].key == key && refs[i].run.Size == cur.Size {
			cur.N += refs[i].run.N
			size += refs[i].size
			i++
		}
		if i == len(refs) {
			break
		}
		r := &refs[i]
		i++
		run, sz := r.run, r.size
		if r.key != key {
			obj := r.obj
			// A stamp implies liveness: dropExtents clears it before death.
			if obj.spanEpoch != epoch {
				if obj.state != objLive {
					return false
				}
				if _, err := m.spansOf(obj); err != nil {
					return false
				}
			}
			if obj.run0.N == 0 {
				// No extents (a failed refresh's residue): read leaves it to
				// ReadSpans, and the ref is never cached.
				return false
			}
			end = max(end, obj.spanEnd)
			if len(obj.runs) > 0 {
				// Several runs (weights straddling zones): merged, not cached.
				runs, cur = mergeRun(runs, cur, obj.run0)
				for _, rest := range obj.runs {
					runs, cur = mergeRun(runs, cur, rest)
				}
				size += obj.size
				continue
			}
			run, sz = obj.run0, obj.size
			r.key, r.run, r.size = key, run, sz
		}
		runs, cur = mergeRun(runs, cur, run)
		size += sz
	}
	if cur.N != 0 {
		runs = append(runs, cur)
	}
	m.runBuf = runs
	if !m.zoned.Device().ReadRunsQuiet(runs, end, &m.energy.Read) {
		return false
	}
	m.stats.Gets += int64(len(refs))
	m.stats.BytesRead += size
	return true
}

// mergeRun folds r into cur, the run being merged, first appending cur to
// runs when r's size differs; a cur of no spans is never appended.
func mergeRun(runs []memdev.SizeRun, cur, r memdev.SizeRun) ([]memdev.SizeRun, memdev.SizeRun) {
	if r.Size == cur.Size {
		cur.N += r.N
		return runs, cur
	}
	if cur.N != 0 {
		runs = append(runs, cur)
	}
	return runs, r
}

// appendRun appends r to runs, merging it into the last run of its size.
func appendRun(runs []memdev.SizeRun, r memdev.SizeRun) []memdev.SizeRun {
	if n := len(runs); n > 0 && runs[n-1].Size == r.Size {
		runs[n-1].N += r.N
		return runs
	}
	return append(runs, r)
}

// NextDeadline reports the earliest simulated time at which Tick would
// perform deadline housekeeping: the fire time — deadline minus the refresh
// margin for PolicyRefresh objects, the deadline itself for PolicyDrop — of
// the earliest live heap entry, mirroring Tick's own staleness filter. The
// scan is linear over the heap; it runs once per idle window, not per step.
func (m *MRM) NextDeadline() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, it := range m.heap {
		obj, ok := m.objects[it.id]
		if !ok || it.deadline != obj.deadline {
			continue // stale entry; Tick would pop and ignore it
		}
		fire := it.deadline
		if obj.opts.Policy == PolicyRefresh {
			margin := time.Duration(float64(m.cfg.Classes[obj.class]) * m.cfg.RefreshMargin)
			fire = it.deadline - margin
		}
		if !found || fire < best {
			best, found = fire, true
		}
	}
	return best, found
}

// results returns the scratch result buffer sized for n device accesses.
func (m *MRM) results(n int) []memdev.Result {
	if cap(m.resBuf) < n {
		m.resBuf = make([]memdev.Result, n)
	}
	return m.resBuf[:n]
}

// Delete removes an object, releasing zones whose objects are all gone. It
// leaves the object table; a ref still held to it reads Get's error for it.
func (m *MRM) Delete(id ObjectID) error {
	obj, ok := m.objects[id]
	if !ok {
		return fmt.Errorf("core: no object %d", id)
	}
	m.dropExtents(obj)
	obj.state = objDeleted
	delete(m.objects, id)
	m.stats.Deletes++
	return nil
}

// dropExtents removes the object from zone membership and resets zones that
// become dead, and moves the ref key. Open zones are never reset mid-fill.
func (m *MRM) dropExtents(obj *object) {
	for _, ext := range obj.extents {
		zm := &m.zones[ext.zone]
		delete(zm.objects, obj.id)
		zn, _ := m.zoned.Zone(ext.zone)
		if len(zm.objects) == 0 && zn.State != controller.ZoneEmpty && zn.State != controller.ZoneOpen {
			m.resetZone(ext.zone)
		}
	}
	obj.extents, obj.runs, obj.run0, obj.spanEnd, obj.spanEpoch = nil, nil, memdev.SizeRun{}, 0, 0
	m.gen++
}

// Tick advances simulated time, performing due housekeeping: refreshing
// objects under PolicyRefresh whose deadline is within the refresh margin,
// expiring PolicyDrop objects whose deadline passed, accounting scrub energy,
// and reclaiming dead zones.
func (m *MRM) Tick(dt time.Duration) error {
	if err := m.zoned.Device().Advance(dt); err != nil {
		return err
	}
	now := m.Now()
	// Static energy mirrors the device account (kept here so EnergyAccount
	// is self-contained).
	m.energy.Static += m.zoned.Device().Spec().StaticPower.Over(dt)

	// Scrub accounting: each class's occupied bytes are read once per scrub
	// interval. Modeled statistically rather than per-zone events.
	m.accountScrub(dt)

	// Process deadlines.
	for m.heap.Len() > 0 {
		top := m.heap[0]
		obj, ok := m.objects[top.id]
		if !ok || top.deadline != obj.deadline {
			heap.Pop(&m.heap) // stale entry
			continue
		}
		margin := time.Duration(float64(m.cfg.Classes[obj.class]) * m.cfg.RefreshMargin)
		if obj.opts.Policy == PolicyRefresh {
			if top.deadline-margin > now {
				break
			}
			heap.Pop(&m.heap)
			if err := m.refreshObject(obj); err != nil {
				return err
			}
			heap.Push(&m.heap, deadlineItem{id: obj.id, deadline: obj.deadline})
		} else {
			if top.deadline > now {
				break
			}
			heap.Pop(&m.heap)
			if obj.state == objLive {
				m.dropExtents(obj)
				obj.state = objExpired
				m.stats.Expirations++
			}
		}
	}
	// Let the zoned layer mark anything else expired (defensive); reclaim
	// dead zones.
	for _, zid := range m.zoned.ExpireDue() {
		// An expired zone can no longer take appends: if it was a class's
		// open zone, rotate away from it.
		for c, open := range m.openZone {
			if open == zid {
				m.openZone[c] = -1
			}
		}
		if len(m.zones[zid].objects) == 0 {
			m.resetZone(zid)
		}
	}
	return nil
}

// resetZone returns a zone to the empty state, fixing up any open-zone
// pointer that referenced it.
func (m *MRM) resetZone(zid int) {
	for c, open := range m.openZone {
		if open == zid {
			m.openZone[c] = -1
		}
	}
	if err := m.zoned.Reset(zid); err == nil {
		m.stats.ZoneResets++
	}
}

// refreshObject rewrites the object into fresh zones, extending its deadline
// by one retention period. An uncorrectable read during refresh does not fail
// the object: PolicyRefresh data (weights) has a durable upstream copy, so the
// rewrite proceeds from there and the event is counted as a restore.
func (m *MRM) refreshObject(obj *object) error {
	// Read the live data (energy), then rewrite.
	restored := false
	for _, ext := range obj.extents {
		res, err := m.zoned.Read(ext.zone, ext.off, ext.size)
		if err != nil {
			if errors.Is(err, fault.ErrUncorrectable) {
				restored = true
				continue
			}
			return fmt.Errorf("core: refresh read: %w", err)
		}
		m.energy.Read += res.Energy
	}
	if restored {
		m.stats.Restores++
	}
	m.dropExtents(obj)
	// Rotate to a fresh zone: appending into the aging open zone would give
	// the rewrite less than a full retention period.
	m.openZone[obj.class] = -1
	if _, err := m.appendObject(obj, obj.size, true); err != nil {
		return fmt.Errorf("core: refresh write: %w", err)
	}
	obj.deadline = m.objectDeadline(obj)
	m.stats.Refreshes++
	m.stats.BytesRefreshed += obj.size
	return nil
}

// accountScrub charges scrub read energy for dt of elapsed time.
func (m *MRM) accountScrub(dt time.Duration) {
	spec := m.zoned.Device().Spec()
	for c := range m.cfg.Classes {
		plan := m.scrub[c]
		if plan.Interval <= 0 {
			continue
		}
		var occupied units.Bytes
		for zid := range m.zones {
			zn, _ := m.zoned.Zone(zid)
			if m.zones[zid].class == Class(c) &&
				(zn.State == controller.ZoneOpen || zn.State == controller.ZoneFull) {
				occupied += zn.WritePtr
			}
		}
		if occupied == 0 {
			continue
		}
		passes := dt.Seconds() / plan.Interval.Seconds()
		m.energy.ScrubRead += units.Energy(float64(spec.ReadEnergyPerBit.PerBit(occupied)) * passes)
		m.stats.ScrubPasses += int64(passes)
	}
}

// Compact relocates live data out of zones whose live fraction has fallen
// to or below threshold (0 < threshold < 1), then resets them — the
// cluster-level garbage collection §4 assigns to the software control plane.
// Unlike an FTL, compaction here is rare: most zones die wholesale because
// retention classes segregate lifetimes; compaction only recovers space
// stranded by early deletes. It returns the number of zones reclaimed.
func (m *MRM) Compact(threshold float64) (int, error) {
	if threshold <= 0 || threshold >= 1 {
		return 0, fmt.Errorf("core: compaction threshold %v outside (0,1)", threshold)
	}
	// Identify victim zones: full (not open — the writer still owns those),
	// some live data, live fraction <= threshold.
	type victim struct {
		id   int
		live units.Bytes
	}
	var victims []victim
	for zid := range m.zones {
		zn, err := m.zoned.Zone(zid)
		if err != nil || zn.State != controller.ZoneFull {
			continue
		}
		var live units.Bytes
		for oid := range m.zones[zid].objects {
			obj := m.objects[oid]
			if obj == nil || obj.state != objLive {
				continue
			}
			for _, ext := range obj.extents {
				if ext.zone == zid {
					live += ext.size
				}
			}
		}
		if live > 0 && float64(live)/float64(zn.Size) <= threshold {
			victims = append(victims, victim{id: zid, live: live})
		}
	}
	reclaimed := 0
	for _, v := range victims {
		// Relocate every live object that has extents in this zone.
		// (Objects may span zones; the whole object moves, which also
		// defragments it.)
		var movers []*object
		for oid := range m.zones[v.id].objects {
			obj := m.objects[oid]
			if obj != nil && obj.state == objLive {
				movers = append(movers, obj)
			}
		}
		// Move in id order: the map's order would make zone choice and the
		// refresh-energy sum differ from run to run.
		sort.Slice(movers, func(i, j int) bool { return movers[i].id < movers[j].id })
		ok := true
		for _, obj := range movers {
			if err := m.refreshObject(obj); err != nil {
				// Out of space mid-compaction: stop; nothing is lost, the
				// zone simply stays uncompacted.
				ok = false
				break
			}
			// refreshObject re-pushes deadlines via the caller normally;
			// here we must record the new deadline in the heap ourselves.
			heap.Push(&m.heap, deadlineItem{id: obj.id, deadline: obj.deadline})
		}
		if !ok {
			break
		}
		// dropExtents inside refreshObject reset the zone once it emptied.
		zn, err := m.zoned.Zone(v.id)
		if err == nil && zn.State == controller.ZoneEmpty {
			reclaimed++
			m.stats.Compactions++
		}
	}
	return reclaimed, nil
}

// CheckInvariants verifies control-plane consistency: the object table holds
// no deleted object, every live extent lies inside a written region of a
// non-empty zone, an object stamped with the current epoch is live, every one
// of its extents still validates (a missed epoch bump or stamp clear shows
// here) and its run summary and end are those of its validated spans, zone
// membership matches object extents, and the zoned controller's indexes (free
// bytes, expiry deadlines, least-worn empty zone) agree with a scan of its
// zones. Tests call it after workloads.
func (m *MRM) CheckInvariants() error {
	// Object extents vs zone membership. Iterate objects in sorted-id order
	// so the first violation reported is the same in every run.
	ids := make([]ObjectID, 0, len(m.objects))
	for id := range m.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// The object table and the stamps first, in a pass of their own, so a
	// stale stamp is reported ahead of any other violation.
	for _, id := range ids {
		obj := m.objects[id]
		if obj.state == objDeleted {
			return fmt.Errorf("core: deleted object %d left in the object table", id)
		}
		if obj.spanEpoch != m.zoned.Epoch() {
			continue
		}
		if obj.state != objLive {
			return fmt.Errorf("core: non-live object %d is stamped", id)
		}
		spans := make([]memdev.Span, 0, len(obj.extents))
		for i, ext := range obj.extents {
			sp, err := m.zoned.ReadSpan(ext.zone, ext.off, ext.size)
			if err != nil {
				return fmt.Errorf("core: object %d is stamped, but its extent %d no longer validates: %w", id, i, err)
			}
			spans = append(spans, sp)
		}
		if run0, runs, end := summarize(spans, nil); run0 != obj.run0 || !slices.Equal(runs, obj.runs) || end != obj.spanEnd {
			return fmt.Errorf("core: object %d summarizes runs %v%v ending at %d, its spans give %v%v ending at %d",
				id, obj.run0, obj.runs, obj.spanEnd, run0, runs, end)
		}
	}
	members := make(map[int]map[ObjectID]bool, len(m.zones))
	for _, id := range ids {
		obj := m.objects[id]
		if obj.state != objLive {
			if len(obj.extents) != 0 {
				return fmt.Errorf("core: non-live object %d retains extents", id)
			}
			continue
		}
		var total units.Bytes
		for _, ext := range obj.extents {
			zn, err := m.zoned.Zone(ext.zone)
			if err != nil {
				return fmt.Errorf("core: object %d references bad zone %d", id, ext.zone)
			}
			if zn.State == controller.ZoneEmpty {
				return fmt.Errorf("core: object %d has extent in empty zone %d", id, ext.zone)
			}
			if ext.off+ext.size > zn.WritePtr {
				return fmt.Errorf("core: object %d extent beyond write pointer in zone %d", id, ext.zone)
			}
			if members[ext.zone] == nil {
				members[ext.zone] = make(map[ObjectID]bool)
			}
			members[ext.zone][id] = true
			total += ext.size
		}
		if total != obj.size {
			return fmt.Errorf("core: object %d extents sum to %v, size is %v", id, total, obj.size)
		}
	}
	for zid := range m.zones {
		oids := make([]ObjectID, 0, len(m.zones[zid].objects))
		for oid := range m.zones[zid].objects {
			oids = append(oids, oid)
		}
		sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
		for _, oid := range oids {
			obj := m.objects[oid]
			if obj == nil || obj.state != objLive {
				return fmt.Errorf("core: zone %d lists dead object %d", zid, oid)
			}
			if !members[zid][oid] {
				return fmt.Errorf("core: zone %d lists object %d with no extent there", zid, oid)
			}
		}
		if got, want := len(m.zones[zid].objects), len(members[zid]); got != want {
			return fmt.Errorf("core: zone %d membership %d != extent owners %d", zid, got, want)
		}
	}
	return m.zoned.CheckInvariants()
}

// Energy returns the energy account.
func (m *MRM) Energy() EnergyAccount { return m.energy }

// Stats returns control-plane statistics.
func (m *MRM) Stats() Stats { return m.stats }

// Wear returns the underlying device wear summary (write cycles per zone).
func (m *MRM) Wear() memdev.WearSummary { return m.zoned.Device().Wear() }

// ZoneWearSpread returns max/mean zone reset counts (software WL quality).
func (m *MRM) ZoneWearSpread() (int, float64) { return m.zoned.WearSpread() }

// Spec exposes the device spec backing this MRM.
func (m *MRM) Spec() memdev.Spec { return m.zoned.Device().Spec() }

// WriteCost returns the per-bit write energy and cell write latency of a
// class — the quantities DCM trades against retention.
func (m *MRM) WriteCost(c Class) (units.Energy, time.Duration, error) {
	op, err := m.OperatingPoint(c)
	if err != nil {
		return 0, 0, err
	}
	return op.WriteEnergy, op.WriteLatency, nil
}
