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
	"cmp"
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
	ext0      [1]extent     // extents' backing array while they fit (a KV page's do)
	deadline  time.Duration // when the data must be refreshed or dropped
	heapIdx   int           // position in MRM.heap while live, -1 otherwise
}

type zoneMeta struct {
	class Class
	live  int // extents of live objects in the zone
}

// deadlineHeap holds exactly the live objects, ordered by (deadline, id),
// each tracking its position so Delete and Compact can remove or re-key it.
type deadlineHeap []*object

func (h deadlineHeap) Len() int { return len(h) }
func (h deadlineHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].id < h[j].id
}
func (h deadlineHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *deadlineHeap) Push(x any) {
	obj := x.(*object)
	obj.heapIdx = len(*h)
	*h = append(*h, obj)
}
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old)
	obj := old[n-1]
	old[n-1] = nil
	obj.heapIdx = -1
	*h = old[:n-1]
	return obj
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

	// Scratch buffers for write, reused across calls so the write hot path
	// allocates only per-object state that outlives the call.
	resBuf  []memdev.Result
	putPlan []putChunk
	putEnds []int                  // per-object end index into putPlan
	putReqs []controller.AppendReq // putPlan's appends, as AppendVec takes them
}

// putChunk is one planned zone append: the extent it becomes, and whether
// planning it opened its zone, which a failure must then close.
type putChunk struct {
	zid    int
	off    units.Bytes
	size   units.Bytes
	opened bool
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

// Put stores an object of the given size with the requested lifetime: a
// one-object PutBatch. It returns the object id and the write latency of the
// slowest extent.
func (m *MRM) Put(size units.Bytes, opts WriteOptions) (ObjectID, time.Duration, error) {
	var ids [1]ObjectID
	var lats [1]time.Duration
	if _, err := m.PutBatch([]units.Bytes{size}, opts, ids[:], lats[:]); err != nil {
		return 0, 0, err
	}
	return ids[0], lats[0], nil
}

// PutBatch stores len(sizes) objects sharing one set of write options, in
// order, issuing every device write as one vectored append. ids[i] and lats[i]
// (both slices must be at least len(sizes) long) receive object i's id and
// worst-extent write latency. It returns the number of objects stored; when
// that number i is < len(sizes), the error says why object i failed. A failed
// call stores objects [0, i) exactly as PutBatch(sizes[:i]) would, and leaves
// no trace of object i or any later one: no id consumed, no zone live count,
// no deadline-heap entry, no zone left open but unwritten. Device writes it
// issued stay charged, a faulted one included.
func (m *MRM) PutBatch(sizes []units.Bytes, opts WriteOptions, ids []ObjectID, lats []time.Duration) (int, error) {
	if len(ids) < len(sizes) || len(lats) < len(sizes) {
		return 0, fmt.Errorf("core: PutBatch: %d ids / %d lats for %d sizes", len(ids), len(lats), len(sizes))
	}
	class, _ := m.ChooseClass(opts.Lifetime)
	n, err := m.write(sizes, class, false)
	wbw := m.zoned.Device().Spec().WriteBW
	start := 0
	for i := 0; i < n; i++ {
		obj := &object{id: m.nextID, size: sizes[i], class: class, opts: opts}
		m.nextID++
		lats[i] = m.addExtents(obj, start, m.putEnds[i], wbw)
		start = m.putEnds[i]
		obj.deadline = m.objectDeadline(obj)
		m.objects[obj.id] = obj
		heap.Push(&m.heap, obj)
		m.stats.Puts++
		m.stats.BytesWritten += sizes[i]
		ids[i] = obj.id
	}
	return n, err
}

// write is the one write routine: it plans sizes as chunks in zones of class
// — the class's open zone first, then least-worn empty zones, opened as
// planned — issues them as one AppendVec, and charges each written chunk its
// class's write energy, as refresh housekeeping when refresh is set. It
// returns the number of objects written in full; object i's chunks are
// m.putPlan[m.putEnds[i-1]:m.putEnds[i]]. Planning stops before an object
// that is empty or finds no zone, closing the zones opened for it, so nothing
// of it is written. A device fault stops the batch at the faulted chunk's
// object: the zones opened for chunks the fault rolled back are closed, and
// that object's chunks that did latch stay written but belong to no object.
// The class's open zone is then the last written chunk's zone, if it has room.
func (m *MRM) write(sizes []units.Bytes, class Class, refresh bool) (int, error) {
	m.putPlan, m.putEnds, m.putReqs = m.putPlan[:0], m.putEnds[:0], m.putReqs[:0]
	oz := m.openZone[class]
	var zPtr, zRem units.Bytes
	if oz >= 0 {
		zn, _ := m.zoned.Zone(oz)
		zPtr, zRem = zn.WritePtr, zn.Remaining()
	}
	var err error
plan:
	for _, size := range sizes {
		if size == 0 {
			err = fmt.Errorf("core: zero-size object")
			break
		}
		first := len(m.putPlan)
		for remaining := size; remaining > 0; {
			opened := false
			if zRem == 0 {
				if oz = m.zoned.LeastWornEmpty(); oz < 0 { // software wear-leveling
					err = ErrNoSpace
				} else {
					err = m.zoned.Open(oz, m.cfg.Classes[class])
				}
				if err != nil {
					m.closePlan(first)
					break plan
				}
				opened, zPtr, zRem = true, 0, m.cfg.ZoneSize
			}
			chunk := min(remaining, zRem)
			m.putPlan = append(m.putPlan, putChunk{zid: oz, off: zPtr, size: chunk, opened: opened})
			m.putReqs = append(m.putReqs, controller.AppendReq{Zone: oz, Size: chunk})
			zPtr += chunk
			zRem -= chunk
			remaining -= chunk
		}
		m.putEnds = append(m.putEnds, len(m.putPlan))
	}
	done, werr := m.zoned.AppendVec(m.putReqs, m.results(len(m.putReqs)))
	if werr != nil {
		m.closePlan(done)
		err = werr
	}
	op := m.ops[class]
	energy := &m.energy.HostWrite
	if refresh {
		energy = &m.energy.RefreshWrite
	}
	for _, e := range m.putPlan {
		// The class's DCM write energy replaces the device's generic one
		// (the whole point of programmable retention).
		*energy += op.WriteEnergy.PerBit(e.size)
		if e.opened {
			m.zones[e.zid].class = class
		}
	}
	if done > 0 {
		last := m.putPlan[done-1].zid
		if zn, _ := m.zoned.Zone(last); zn.State == controller.ZoneOpen {
			m.openZone[class] = last
		} else {
			m.openZone[class] = -1
		}
	}
	n := len(m.putEnds)
	for n > 0 && m.putEnds[n-1] > done {
		n--
	}
	return n, err
}

// closePlan drops the planned chunks from index from on, closing (in reverse
// order) the zones they opened, which nothing has been written to.
func (m *MRM) closePlan(from int) {
	for j := len(m.putPlan) - 1; j >= from; j-- {
		if e := &m.putPlan[j]; e.opened {
			_ = m.zoned.CancelOpen(e.zid)
		}
	}
	m.putPlan, m.putReqs = m.putPlan[:from], m.putReqs[:from]
}

// addExtents appends the planned chunks [from, to) to obj's extents, counts
// them live in their zones, and returns the worst chunk's write latency: the
// class's cell write time plus the transfer at write bandwidth wbw.
func (m *MRM) addExtents(obj *object, from, to int, wbw units.Bandwidth) time.Duration {
	op := m.ops[obj.class]
	var worst time.Duration
	if obj.extents == nil {
		obj.extents = obj.ext0[:0]
	}
	for _, e := range m.putPlan[from:to] {
		obj.extents = append(obj.extents, extent{zone: e.zid, off: e.off, size: e.size})
		m.zones[e.zid].live++
		worst = max(worst, op.WriteLatency+wbw.Time(e.size))
	}
	return worst
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
// perform deadline housekeeping: the earliest fire time (see fireAt) of a
// live object. The heap holds exactly the live objects, but it is keyed on
// deadline and refresh margins differ by class, so the scan is linear over
// it; it runs once per idle window, not per step.
func (m *MRM) NextDeadline() (time.Duration, bool) {
	var best time.Duration
	for i, obj := range m.heap {
		if fire := m.fireAt(obj); i == 0 || fire < best {
			best = fire
		}
	}
	return best, len(m.heap) > 0
}

// fireAt is when Tick handles obj: its deadline minus the refresh margin
// under PolicyRefresh, the deadline itself under PolicyDrop.
func (m *MRM) fireAt(obj *object) time.Duration {
	if obj.opts.Policy != PolicyRefresh {
		return obj.deadline
	}
	return obj.deadline - time.Duration(float64(m.cfg.Classes[obj.class])*m.cfg.RefreshMargin)
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
	if obj.state == objLive {
		heap.Remove(&m.heap, obj.heapIdx)
	}
	m.dropExtents(obj)
	obj.state = objDeleted
	delete(m.objects, id)
	m.stats.Deletes++
	return nil
}

// dropExtents uncounts the object's extents from their zones' live counts,
// resets zones that become dead, and moves the ref key. Open zones are never
// reset mid-fill.
func (m *MRM) dropExtents(obj *object) {
	for _, ext := range obj.extents {
		zm := &m.zones[ext.zone]
		zm.live--
		zn, _ := m.zoned.Zone(ext.zone)
		if zm.live == 0 && zn.State != controller.ZoneEmpty && zn.State != controller.ZoneOpen {
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

	// Process deadlines in (deadline, id) order, stopping at the first
	// object not yet due.
	for len(m.heap) > 0 && m.fireAt(m.heap[0]) <= now {
		obj := m.heap[0]
		if obj.opts.Policy == PolicyRefresh {
			if err := m.refreshObject(obj); err != nil {
				return err
			}
			continue
		}
		heap.Pop(&m.heap)
		m.dropExtents(obj)
		obj.state = objExpired
		m.stats.Expirations++
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
		if m.zones[zid].live == 0 {
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

// refreshObject rewrites the live object into fresh zones, extending its
// deadline by one retention period, and re-keys its heap entry. An
// uncorrectable read during refresh does not fail the object: PolicyRefresh
// data (weights) has a durable upstream copy, so the rewrite proceeds from
// there and the event is counted as a restore. A failed rewrite leaves the
// object expired, with no extents and no heap entry.
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
	// Drop, then write: the drop may reset the old copy's zones, which the
	// rewrite's least-worn choice then sees.
	m.dropExtents(obj)
	// Rotate to a fresh zone: appending into the aging open zone would give
	// the rewrite less than a full retention period.
	m.openZone[obj.class] = -1
	if n, err := m.write([]units.Bytes{obj.size}, obj.class, true); n == 0 {
		// The old copy is gone and the new one left no trace: the object is
		// lost, and reads get ErrExpired.
		heap.Remove(&m.heap, obj.heapIdx)
		obj.state = objExpired
		return fmt.Errorf("core: refresh write: %w", err)
	}
	m.addExtents(obj, 0, m.putEnds[0], m.zoned.Device().Spec().WriteBW)
	obj.deadline = m.objectDeadline(obj)
	heap.Fix(&m.heap, obj.heapIdx)
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
	// Live bytes per zone, from one pass over the live objects (the heap).
	live := make([]units.Bytes, len(m.zones))
	for _, obj := range m.heap {
		for _, ext := range obj.extents {
			live[ext.zone] += ext.size
		}
	}
	// Identify victim zones: full (not open — the writer still owns those),
	// some live data, live fraction <= threshold.
	var victims []int
	for zid := range m.zones {
		zn, err := m.zoned.Zone(zid)
		if err != nil || zn.State != controller.ZoneFull {
			continue
		}
		if live[zid] > 0 && float64(live[zid])/float64(zn.Size) <= threshold {
			victims = append(victims, zid)
		}
	}
	reclaimed := 0
	var movers []*object
	for _, zid := range victims {
		// Relocate every live object that has extents in this zone now.
		// (Objects may span zones; the whole object moves, which also
		// defragments it.)
		movers = movers[:0]
		for _, obj := range m.heap {
			if slices.ContainsFunc(obj.extents, func(e extent) bool { return e.zone == zid }) {
				movers = append(movers, obj)
			}
		}
		// Move in id order: the heap's layout would make zone choice and
		// the refresh-energy sum depend on its history.
		slices.SortFunc(movers, func(a, b *object) int { return cmp.Compare(a.id, b.id) })
		for _, obj := range movers {
			if err := m.refreshObject(obj); err != nil {
				// A failed move (no free zone, or a device fault) has
				// expired the object, as a failed refresh in Tick does: its
				// old copy was dropped first. Compaction stops there, and
				// the zones reclaimed so far are reported without an error.
				return reclaimed, nil
			}
		}
		// dropExtents inside refreshObject reset the zone once it emptied.
		zn, err := m.zoned.Zone(zid)
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
// here) and its run summary and end are those of its validated spans, the
// deadline heap holds each live object once, at its heapIdx, and nothing
// else, in heap order, each zone's live count is a recount of live extents,
// no zone is open but unwritten, each class's open zone is an open zone of
// that class, and the zoned controller's indexes (free bytes, expiry
// deadlines, least-worn empty zone) agree with a scan of its zones. Tests
// call it after workloads.
func (m *MRM) CheckInvariants() error {
	// Object extents vs zone live counts. Iterate objects in sorted-id order
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
	live := make([]int, len(m.zones))
	nLive := 0
	for _, id := range ids {
		obj := m.objects[id]
		if obj.state != objLive {
			if len(obj.extents) != 0 {
				return fmt.Errorf("core: non-live object %d retains extents", id)
			}
			continue
		}
		nLive++
		if obj.heapIdx < 0 || obj.heapIdx >= len(m.heap) || m.heap[obj.heapIdx] != obj {
			return fmt.Errorf("core: live object %d is not in the deadline heap at its index %d", id, obj.heapIdx)
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
			live[ext.zone]++
			total += ext.size
		}
		if total != obj.size {
			return fmt.Errorf("core: object %d extents sum to %v, size is %v", id, total, obj.size)
		}
	}
	// Every live object sits at its own index, so with as many entries as
	// live objects the heap holds nothing else.
	if len(m.heap) != nLive {
		return fmt.Errorf("core: deadline heap holds %d entries for %d live objects", len(m.heap), nLive)
	}
	for i := 1; i < len(m.heap); i++ {
		if m.heap.Less(i, (i-1)/2) {
			return fmt.Errorf("core: deadline heap out of order at %d (object %d)", i, m.heap[i].id)
		}
	}
	for zid := range m.zones {
		if got, want := m.zones[zid].live, live[zid]; got != want {
			return fmt.Errorf("core: zone %d counts %d live extents, its objects hold %d", zid, got, want)
		}
		if zn, _ := m.zoned.Zone(zid); zn.State == controller.ZoneOpen && zn.WritePtr == 0 {
			return fmt.Errorf("core: zone %d is open but unwritten", zid)
		}
	}
	for c := range m.cfg.Classes {
		if zid := m.openZone[Class(c)]; zid >= 0 {
			if zn, _ := m.zoned.Zone(zid); zn.State != controller.ZoneOpen || m.zones[zid].class != Class(c) {
				return fmt.Errorf("core: class %d fills zone %d, which is %v and of class %d", c, zid, zn.State, m.zones[zid].class)
			}
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
