// Package tier implements the tiered-memory control plane of §4: a manager
// that places inference data structures (weights, KV pages, activations)
// across heterogeneous memory backends — HBM, MRM, LPDDR — according to a
// placement policy, tracks per-tier traffic and energy, and supports
// migration. The paper's claim under test (E7) is that retention-aware
// placement beats bandwidth-ordered static placement on tokens/joule at
// equal or better throughput.
package tier

import (
	"fmt"
	"sort"
	"time"

	"mrm/internal/core"
	"mrm/internal/memdev"
	"mrm/internal/units"
)

// ObjectID names an object across the tiered store.
type ObjectID uint64

// Meta describes an object for placement decisions.
type Meta struct {
	Kind     core.DataKind
	Size     units.Bytes
	Lifetime time.Duration
	// ReadHot marks data on the per-token read path (weights, live KV).
	ReadHot bool
}

// Info summarizes a tier for policies.
type Info struct {
	Index            int
	Name             string
	Capacity         units.Bytes
	Free             units.Bytes
	ReadBW           units.Bandwidth
	ReadEnergyPerBit units.Energy
	Managed          bool          // an MRM tier
	MaxRetention     time.Duration // longest retention class (managed only)
}

// Policy decides which tier an object lands in.
type Policy interface {
	Name() string
	// Place returns the index of the chosen tier, or an error if nothing
	// fits. tiers are presented in manager order.
	Place(m Meta, tiers []Info) (int, error)
}

// Backend is a memory tier implementation. Put stores one object, as a
// one-object PutBatch (BatchPutter) would.
type Backend interface {
	Name() string
	Info() Info
	Put(m Meta) (handle uint64, lat time.Duration, err error)
	BatchPutter
	Get(handle uint64) (lat time.Duration, err error)
	Delete(handle uint64) error
	Tick(dt time.Duration) error
	// Energy returns total energy consumed so far.
	Energy() units.Energy
	// Traffic returns cumulative bytes read and written.
	Traffic() (read, written units.Bytes)
}

// Faultable is implemented by backends that support deterministic fault
// injection (internal/fault). Backends without it simply never fail.
type Faultable interface {
	SetFaults(memdev.FaultConfig)
}

// BERTunable is retired: no backend implements it. The read path's BER scan
// now runs exactly when an ECC budget is armed, so there is no switch to
// forward. The type stays only because the benchmark module's decorator
// parity test still names it; parity holds, as neither a bare backend nor
// its decorator implements it. Delete it with that reference.
type BERTunable interface {
	SetBERTracking(on bool)
}

// BatchGetter is implemented by backends that can coalesce a sequence of Gets
// into one vectored device access. The contract is strict sequential
// equivalence: GetBatch(handles) must perform exactly the validation, device
// reads, fault events, and accounting of calling Get(h) for each handle in
// order and stopping at the first error. It returns the number of handles
// read in full and the error the first-failing Get would have returned.
type BatchGetter interface {
	GetBatch(handles []uint64) (int, error)
}

// SpanGetter is implemented by backends whose objects resolve to fixed device
// spans (DeviceTier), letting planned readers skip the per-read handle lookup.
// GetSpans must perform exactly the device reads, fault events, and accounting
// of calling Get on the handles the spans were resolved from, in order,
// stopping at the first error. A resolved span is valid until its object is
// deleted.
type SpanGetter interface {
	ResolveSpan(handle uint64) (memdev.Span, error)
	GetSpans(spans []memdev.Span) (int, error)
}

// RefGetter is implemented by backends whose objects live behind a control
// plane that relocates extents (MRMTier): the resolved reference is stable
// across refresh-driven moves, and reads through it observe expiry exactly
// like reads by handle. GetRefs carries BatchGetter's strict sequential
// equivalence, minus the id lookups. GetRefs may rewrite the refs' cached
// fields in place; a caller that keeps the slice between reads lets later
// reads skip the objects (see core.ObjRef).
type RefGetter interface {
	ResolveRef(handle uint64) (core.ObjRef, error)
	GetRefs(refs []core.ObjRef) (int, error)
}

// Housekeeper is implemented by backends with deadline-driven housekeeping
// (MRM refresh/expiry). NextDeadline reports the earliest simulated time at
// which the backend's Tick would act on a deadline, letting a discrete-event
// driver jump idle windows without missing scrub or retention work.
type Housekeeper interface {
	NextDeadline() (time.Duration, bool)
}

// BatchPutter is the write half of every Backend: PutBatch stores the metas
// in order as one vectored device access. handles[i] and lats[i] (both slices
// at least len(metas) long) receive object i's backend handle and write
// latency. It returns the number of objects stored; when that number i is <
// len(metas), the error says why object i failed, objects [0, i) are stored
// exactly as PutBatch(metas[:i]) would store them, and object i and every
// later one leave no trace in the backend's bookkeeping. Device writes already
// issued stay charged.
type BatchPutter interface {
	PutBatch(metas []Meta, handles []uint64, lats []time.Duration) (int, error)
}

// ---- Device-backed tier (HBM / LPDDR / DDR) ----

// DeviceTier wraps a raw memdev.Device with a first-fit allocator.
type DeviceTier struct {
	name string
	dev  *memdev.Device
	// free is a sorted, coalesced list of free extents.
	free    []span
	objects map[uint64]span
	nextID  uint64
	freeB   units.Bytes
	spanBuf []memdev.Span   // scratch for GetBatch/PutBatch, reused across calls
	resBuf  []memdev.Result // scratch for PutBatch, reused across calls
}

type span struct {
	addr, size units.Bytes
}

// NewDeviceTier builds a tier over a device spec.
func NewDeviceTier(name string, spec memdev.Spec) (*DeviceTier, error) {
	dev, err := memdev.NewDevice(spec)
	if err != nil {
		return nil, err
	}
	return &DeviceTier{
		name:    name,
		dev:     dev,
		free:    []span{{addr: 0, size: spec.Capacity}},
		objects: make(map[uint64]span),
		freeB:   spec.Capacity,
	}, nil
}

// Name returns the tier name.
func (d *DeviceTier) Name() string { return d.name }

// Info reports placement-relevant properties.
func (d *DeviceTier) Info() Info {
	s := d.dev.Spec()
	return Info{
		Name:             d.name,
		Capacity:         s.Capacity,
		Free:             d.freeB,
		ReadBW:           s.ReadBW,
		ReadEnergyPerBit: s.ReadEnergyPerBit,
	}
}

// alloc carves size bytes out of the free list first-fit, returning the
// allocated span. freeB is the caller's to update on commit.
func (d *DeviceTier) alloc(size units.Bytes) (span, bool) {
	for i, f := range d.free {
		if f.size >= size {
			sp := span{addr: f.addr, size: size}
			if f.size == size {
				d.free = append(d.free[:i], d.free[i+1:]...)
			} else {
				d.free[i] = span{addr: f.addr + size, size: f.size - size}
			}
			return sp, true
		}
	}
	return span{}, false
}

// release returns sp to the free list, coalescing it with its neighbours.
// freeB is the caller's to update.
func (d *DeviceTier) release(sp span) {
	i := sort.Search(len(d.free), func(i int) bool { return d.free[i].addr > sp.addr })
	d.free = append(d.free, span{})
	copy(d.free[i+1:], d.free[i:])
	d.free[i] = sp
	if i+1 < len(d.free) && d.free[i].addr+d.free[i].size == d.free[i+1].addr {
		d.free[i].size += d.free[i+1].size
		d.free = append(d.free[:i+1], d.free[i+2:]...)
	}
	if i > 0 && d.free[i-1].addr+d.free[i-1].size == d.free[i].addr {
		d.free[i-1].size += d.free[i].size
		d.free = append(d.free[:i], d.free[i+1:]...)
	}
}

// Put allocates and writes one object: a one-object PutBatch.
func (d *DeviceTier) Put(m Meta) (uint64, time.Duration, error) {
	var h [1]uint64
	var lat [1]time.Duration
	if _, err := d.PutBatch([]Meta{m}, h[:], lat[:]); err != nil {
		return 0, 0, err
	}
	return h[0], lat[0], nil
}

// PutBatch allocates the listed objects first-fit, in order, and writes them
// as one vectored device access (see BatchPutter). An object that does not
// fit ends the batch before any write. On a device fault the spans carved for
// the faulted object and every later one go back to the free list, latest
// first, which restores the list exactly.
func (d *DeviceTier) PutBatch(metas []Meta, handles []uint64, lats []time.Duration) (int, error) {
	if len(handles) < len(metas) || len(lats) < len(metas) {
		return 0, fmt.Errorf("tier: %s: PutBatch output slices shorter than metas", d.name)
	}
	d.spanBuf = d.spanBuf[:0]
	free := d.freeB
	var err error
	for _, m := range metas {
		if m.Size == 0 {
			err = fmt.Errorf("tier: zero-size object")
			break
		}
		sp, ok := d.alloc(m.Size)
		if !ok {
			err = fmt.Errorf("tier: %s full (need %v, free %v)", d.name, m.Size, free)
			break
		}
		d.spanBuf = append(d.spanBuf, memdev.Span{Addr: sp.addr, Size: sp.size})
		free -= m.Size
	}
	n := len(d.spanBuf)
	if cap(d.resBuf) < n {
		d.resBuf = make([]memdev.Result, max(n, 2*cap(d.resBuf)))
	}
	done, werr := d.dev.WriteSpans(d.spanBuf, d.resBuf[:n])
	if werr != nil {
		err = werr
		for j := n - 1; j >= done; j-- {
			d.release(span{addr: d.spanBuf[j].Addr, size: d.spanBuf[j].Size})
		}
	}
	for j, sp := range d.spanBuf[:done] {
		d.objects[d.nextID] = span{addr: sp.Addr, size: sp.Size}
		d.freeB -= sp.Size
		handles[j], lats[j] = d.nextID, d.resBuf[j].Latency
		d.nextID++
	}
	return done, err
}

// CheckInvariants verifies the allocator: the free list is sorted,
// non-overlapping and coalesced, freeB is its sum, and the objects and the
// free spans tile the capacity exactly. Tests call it after workloads.
func (d *DeviceTier) CheckInvariants() error {
	var free units.Bytes
	spans := make([]span, 0, len(d.free)+len(d.objects))
	for i, f := range d.free {
		if f.size == 0 {
			return fmt.Errorf("tier: %s: empty free span at %d", d.name, f.addr)
		}
		if i > 0 && d.free[i-1].addr+d.free[i-1].size >= f.addr {
			return fmt.Errorf("tier: %s: free spans %+v and %+v overlap, touch, or are out of order", d.name, d.free[i-1], f)
		}
		free += f.size
		spans = append(spans, f)
	}
	if free != d.freeB {
		return fmt.Errorf("tier: %s: free counter %v != free-list sum %v", d.name, d.freeB, free)
	}
	for _, sp := range d.objects {
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].addr < spans[j].addr })
	var end units.Bytes
	for _, sp := range spans {
		if sp.addr != end {
			return fmt.Errorf("tier: %s: span %+v does not start where the last one ended (%v)", d.name, sp, end)
		}
		end += sp.size
	}
	if c := d.dev.Spec().Capacity; end != c {
		return fmt.Errorf("tier: %s: objects and free spans cover %v of %v", d.name, end, c)
	}
	return nil
}

// Get reads an object.
func (d *DeviceTier) Get(handle uint64) (time.Duration, error) {
	sp, ok := d.objects[handle]
	if !ok {
		return 0, fmt.Errorf("tier: %s has no object %d", d.name, handle)
	}
	res, err := d.dev.ReadAt(sp.addr, sp.size)
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}

// GetBatch reads the listed objects as one vectored device access with
// sequential-Get equivalence (see BatchGetter).
func (d *DeviceTier) GetBatch(handles []uint64) (int, error) {
	d.spanBuf = d.spanBuf[:0]
	for _, h := range handles {
		sp, ok := d.objects[h]
		if !ok {
			// A sequential caller has read the earlier handles before failing
			// this lookup; a device error among those takes precedence.
			done, _, derr := d.dev.ReadSpans(d.spanBuf, nil)
			if derr != nil {
				return done, derr
			}
			return len(d.spanBuf), fmt.Errorf("tier: %s has no object %d", d.name, h)
		}
		d.spanBuf = append(d.spanBuf, memdev.Span{Addr: sp.addr, Size: sp.size})
	}
	done, _, err := d.dev.ReadSpans(d.spanBuf, nil)
	return done, err
}

// ResolveSpan resolves a handle to its device span for planned reads (see
// SpanGetter). Device-tier objects never move, so the span is valid until the
// object is deleted.
func (d *DeviceTier) ResolveSpan(handle uint64) (memdev.Span, error) {
	sp, ok := d.objects[handle]
	if !ok {
		return memdev.Span{}, fmt.Errorf("tier: %s has no object %d", d.name, handle)
	}
	return memdev.Span{Addr: sp.addr, Size: sp.size}, nil
}

// GetSpans reads the resolved spans as one vectored device access — the same
// span sequence GetBatch issues after its lookups, so counters, energy, and
// fault-stream positions are identical. The simulator takes read costs from
// the manager's per-tier totals, so the span latencies are dropped.
func (d *DeviceTier) GetSpans(spans []memdev.Span) (int, error) {
	done, _, err := d.dev.ReadSpans(spans, nil)
	return done, err
}

// Delete frees an object, coalescing adjacent free spans.
func (d *DeviceTier) Delete(handle uint64) error {
	sp, ok := d.objects[handle]
	if !ok {
		return fmt.Errorf("tier: %s has no object %d", d.name, handle)
	}
	delete(d.objects, handle)
	d.freeB += sp.size
	d.release(sp)
	return nil
}

// SetFaults arms fault injection on the underlying device.
func (d *DeviceTier) SetFaults(cfg memdev.FaultConfig) { d.dev.SetFaults(cfg) }

// Tick advances device time (charging static + refresh energy).
func (d *DeviceTier) Tick(dt time.Duration) error { return d.dev.Advance(dt) }

// Energy returns the device's total energy.
func (d *DeviceTier) Energy() units.Energy { return d.dev.Energy().Total() }

// Traffic returns cumulative bytes moved.
func (d *DeviceTier) Traffic() (units.Bytes, units.Bytes) {
	st := d.dev.Stats()
	return st.ReadBytes, st.WriteBytes
}

// ---- MRM-backed tier ----

// MRMTier adapts a core.MRM as a tier backend.
type MRMTier struct {
	name    string
	mrm     *core.MRM
	maxRet  time.Duration   // the longest retention class, fixed at construction
	idBuf   []core.ObjectID // scratch for PutBatch, reused across calls
	sizeBuf []units.Bytes   // scratch for PutBatch, reused across calls
	refBuf  []core.ObjRef   // scratch for GetBatch, reused across calls
}

// NewMRMTier wraps an MRM.
func NewMRMTier(name string, m *core.MRM) *MRMTier {
	classes := m.Classes()
	return &MRMTier{name: name, mrm: m, maxRet: classes[len(classes)-1]}
}

// Name returns the tier name.
func (t *MRMTier) Name() string { return t.name }

// MRM exposes the underlying control plane.
func (t *MRMTier) MRM() *core.MRM { return t.mrm }

// Info reports placement-relevant properties. Placement asks for it on
// every PutBatch, so it copies nothing.
func (t *MRMTier) Info() Info {
	s := t.mrm.Spec()
	return Info{
		Name:             t.name,
		Capacity:         t.mrm.Capacity(),
		Free:             t.mrm.FreeBytes(),
		ReadBW:           s.ReadBW,
		ReadEnergyPerBit: s.ReadEnergyPerBit,
		Managed:          true,
		MaxRetention:     t.maxRet,
	}
}

// writeOptions maps a meta to the MRM write options Put uses: soft state
// (KV, activations) is dropped at expiry; anything else is refreshed.
func writeOptions(m Meta) core.WriteOptions {
	policy := core.PolicyRefresh
	if m.Kind == core.KindKVCache || m.Kind == core.KindActivation {
		policy = core.PolicyDrop
	}
	return core.WriteOptions{Kind: m.Kind, Lifetime: m.Lifetime, Policy: policy}
}

// Put stores an object with kind-appropriate expiry policy (see writeOptions).
func (t *MRMTier) Put(m Meta) (uint64, time.Duration, error) {
	id, lat, err := t.mrm.Put(m.Size, writeOptions(m))
	return uint64(id), lat, err
}

// PutBatch stores the listed objects (see BatchPutter), splitting the batch
// into runs of identical write options so each run flushes through the
// control plane as one vectored append.
func (t *MRMTier) PutBatch(metas []Meta, handles []uint64, lats []time.Duration) (int, error) {
	if len(handles) < len(metas) || len(lats) < len(metas) {
		return 0, fmt.Errorf("tier: %s: PutBatch output slices shorter than metas", t.name)
	}
	done := 0
	for done < len(metas) {
		opts := writeOptions(metas[done])
		end := done + 1
		for end < len(metas) && writeOptions(metas[end]) == opts {
			end++
		}
		t.sizeBuf = t.sizeBuf[:0]
		for _, m := range metas[done:end] {
			t.sizeBuf = append(t.sizeBuf, m.Size)
		}
		if cap(t.idBuf) < end-done {
			t.idBuf = make([]core.ObjectID, end-done)
		}
		ids := t.idBuf[:end-done]
		n, err := t.mrm.PutBatch(t.sizeBuf, opts, ids, lats[done:end])
		for i := 0; i < n; i++ {
			handles[done+i] = uint64(ids[i])
		}
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// Get reads an object.
func (t *MRMTier) Get(handle uint64) (time.Duration, error) {
	return t.mrm.Get(core.ObjectID(handle))
}

// GetBatch reads the listed objects as one vectored device access with
// sequential-Get equivalence (see BatchGetter): it resolves handles up to the
// first lookup failure and reads that prefix through GetRefs. A sequential
// caller reads the prefix before failing the lookup, so a device error there
// takes precedence over the lookup error.
func (t *MRMTier) GetBatch(handles []uint64) (int, error) {
	t.refBuf = t.refBuf[:0]
	var lookupErr error
	for _, h := range handles {
		ref, err := t.mrm.ResolveRef(core.ObjectID(h))
		if err != nil {
			lookupErr = err
			break
		}
		t.refBuf = append(t.refBuf, ref)
	}
	n, err := t.mrm.GetRefs(t.refBuf)
	if err != nil {
		return n, err
	}
	return n, lookupErr
}

// ResolveRef resolves a handle for planned reads (see RefGetter).
func (t *MRMTier) ResolveRef(handle uint64) (core.ObjRef, error) {
	return t.mrm.ResolveRef(core.ObjectID(handle))
}

// GetRefs reads the referenced objects with sequential-Get equivalence (see
// RefGetter), minus the id lookups.
func (t *MRMTier) GetRefs(refs []core.ObjRef) (int, error) {
	return t.mrm.GetRefs(refs)
}

// NextDeadline reports the MRM's earliest pending housekeeping deadline (see
// Housekeeper).
func (t *MRMTier) NextDeadline() (time.Duration, bool) {
	return t.mrm.NextDeadline()
}

// Delete removes an object.
func (t *MRMTier) Delete(handle uint64) error {
	return t.mrm.Delete(core.ObjectID(handle))
}

// SetFaults arms fault injection on the MRM's device.
func (t *MRMTier) SetFaults(cfg memdev.FaultConfig) { t.mrm.SetFaults(cfg) }

// Tick advances the MRM control plane.
func (t *MRMTier) Tick(dt time.Duration) error { return t.mrm.Tick(dt) }

// Energy returns the MRM account total.
func (t *MRMTier) Energy() units.Energy { return t.mrm.Energy().Total() }

// Traffic returns cumulative bytes moved.
func (t *MRMTier) Traffic() (units.Bytes, units.Bytes) {
	st := t.mrm.Stats()
	return st.BytesRead, st.BytesWritten + st.BytesRefreshed
}

// ---- Policies ----

// StaticPolicy is the baseline: fill the fastest tier first, overflow down,
// ignoring data kind and lifetime — how a bandwidth-tiered HBM+LPDDR system
// behaves without retention awareness.
type StaticPolicy struct{}

// Name identifies the policy.
func (StaticPolicy) Name() string { return "static-bandwidth" }

// Place picks the highest-bandwidth tier with room. Tiers are visited in
// bandwidth-descending order with ties kept in manager order, selected one at
// a time so the hot Put path allocates nothing (placement runs once per
// object; a sorted index slice here dominated the write path's allocations).
func (StaticPolicy) Place(m Meta, tiers []Info) (int, error) {
	var used uint64 // bitmask over tier indices; managers have a handful of tiers
	if len(tiers) > 64 {
		return 0, fmt.Errorf("tier: too many tiers (%d)", len(tiers))
	}
	for picked := 0; picked < len(tiers); picked++ {
		best := -1
		for i := range tiers {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			if best < 0 || tiers[i].ReadBW > tiers[best].ReadBW {
				best = i
			}
		}
		used |= 1 << uint(best)
		if tiers[best].Free >= m.Size {
			return best, nil
		}
	}
	return 0, fmt.Errorf("tier: no tier fits %v", m.Size)
}

// RetentionAwarePolicy implements §4's placement: match data lifetime to
// tier retention and read-intensity to read efficiency.
//
//   - Activations (written every pass) stay in volatile HBM: MRM write energy
//     and endurance would be wasted on them.
//   - Weights and KV pages (read-hot, rarely written, lifetime >> HBM
//     refresh) go to the managed tier when its retention covers them.
//   - Cold/oversized data overflows to the slow tier.
type RetentionAwarePolicy struct{}

// Name identifies the policy.
func (RetentionAwarePolicy) Name() string { return "retention-aware" }

// Place implements Policy.
func (RetentionAwarePolicy) Place(m Meta, tiers []Info) (int, error) {
	// Index tiers by role.
	managed := -1
	fastest := -1
	for i, ti := range tiers {
		if ti.Managed && managed < 0 {
			managed = i
		}
		if !ti.Managed && (fastest < 0 || ti.ReadBW > tiers[fastest].ReadBW) {
			fastest = i
		}
	}
	var prefer [2]int
	switch {
	case m.Kind == core.KindActivation:
		// Rewritten every forward pass: volatile memory, no wear, no
		// retention to manage.
		prefer = [2]int{fastest, managed}
	case m.Kind == core.KindWeights:
		// Read-hot, immutable, persisted elsewhere: the MRM sweet spot.
		// Lifetimes beyond the device's retention are covered by the control
		// plane's refresh policy (cheap: updates are rare).
		prefer = [2]int{managed, fastest}
	case managed >= 0 && m.Lifetime <= tiers[managed].MaxRetention:
		// Soft state whose lifetime a retention class covers outright.
		prefer = [2]int{managed, fastest}
	default:
		prefer = [2]int{fastest, managed}
	}
	if len(tiers) > 64 {
		return 0, fmt.Errorf("tier: too many tiers (%d)", len(tiers))
	}
	var used uint64 // bitmask over tier indices (preferred tiers already tried)
	for _, i := range prefer {
		if i >= 0 {
			used |= 1 << uint(i)
			if tiers[i].Free >= m.Size {
				return i, nil
			}
		}
	}
	// Fall back over the remaining tiers, fastest-read first (ties in manager
	// order), selected one at a time so the hot path allocates nothing.
	for {
		best := -1
		for i := range tiers {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			if best < 0 || tiers[i].ReadBW > tiers[best].ReadBW {
				best = i
			}
		}
		if best < 0 {
			break
		}
		used |= 1 << uint(best)
		if tiers[best].Free >= m.Size {
			return best, nil
		}
	}
	return 0, fmt.Errorf("tier: no tier fits %v (%v)", m.Size, m.Kind)
}

// ---- Manager ----

type placed struct {
	tier   int
	handle uint64
	meta   Meta
}

// Manager places objects across tiers under a policy.
type Manager struct {
	tiers   []Backend
	policy  Policy
	objects map[ObjectID]placed
	nextID  ObjectID

	perTierReads []units.Bytes // bytes read via Get, indexed by tier
	reseats      int64
	handleBuf    []uint64 // scratch for PutBatch, reused across calls
	infoBuf      []Info   // scratch for Put/PutBatch placement, reused across calls
	// readBW caches each backend's read bandwidth, which is fixed at device
	// construction; ReadTime runs per decode step and must not pay Info()
	// (which copies the device spec) to learn a constant.
	readBW []units.Bandwidth

	// Backoff is the base delay charged before a Reseat attempt (the
	// controller's fault-isolation/remap window); callers double it per retry.
	Backoff time.Duration
}

// NewManager builds a manager; tier order is preserved for policies.
func NewManager(policy Policy, tiers ...Backend) (*Manager, error) {
	if policy == nil || len(tiers) == 0 {
		return nil, fmt.Errorf("tier: need a policy and at least one tier")
	}
	readBW := make([]units.Bandwidth, len(tiers))
	for i, t := range tiers {
		readBW[i] = t.Info().ReadBW
	}
	return &Manager{
		tiers:        tiers,
		policy:       policy,
		objects:      make(map[ObjectID]placed),
		perTierReads: make([]units.Bytes, len(tiers)),
		readBW:       readBW,
		Backoff:      100 * time.Microsecond,
	}, nil
}

// Backends returns the managed tiers in manager order (for fault arming and
// stats collection; callers must not mutate placement through them).
func (m *Manager) Backends() []Backend { return m.tiers }

// Reseats counts re-placements performed by Reseat.
func (m *Manager) Reseats() int64 { return m.reseats }

// Policy returns the active policy.
func (m *Manager) Policy() Policy { return m.policy }

// SetPolicy swaps the placement policy live and returns the previous one.
// Only future placements (Put/PutBatch/Reseat) consult the policy, so
// already-placed objects stay where they are — the serving daemon uses this
// to reconfigure tiering on a running node without disturbing its state.
func (m *Manager) SetPolicy(p Policy) (Policy, error) {
	if p == nil {
		return nil, fmt.Errorf("tier: nil policy")
	}
	prev := m.policy
	m.policy = p
	return prev, nil
}

// Tiers returns current tier infos (with indices filled in).
func (m *Manager) Tiers() []Info {
	out := make([]Info, len(m.tiers))
	for i, t := range m.tiers {
		out[i] = t.Info()
		out[i].Index = i
	}
	return out
}

// infos fills the manager's info scratch with current tier infos. The slice
// is invalidated by the next infos call; Put/PutBatch use it so per-object
// placement doesn't allocate. Callers that hand infos out (Tiers, Reseat)
// still take fresh copies.
func (m *Manager) infos() []Info {
	m.infoBuf = m.infoBuf[:0]
	for i, t := range m.tiers {
		info := t.Info()
		info.Index = i
		m.infoBuf = append(m.infoBuf, info)
	}
	return m.infoBuf
}

// Put places one object per the policy: a one-object PutBatch.
func (m *Manager) Put(meta Meta) (ObjectID, time.Duration, error) {
	var ids [1]ObjectID
	var lats [1]time.Duration
	var tiers [1]int
	if _, err := m.PutBatch([]Meta{meta}, ids[:], lats[:], tiers[:]); err != nil {
		return 0, 0, err
	}
	return ids[0], lats[0], nil
}

// PutBatch places the metas in order, stopping at the first error, and
// stores each consecutive run of same-tier placements as one backend
// PutBatch. Placement for object i runs against a shadow of the tier infos
// whose Free counts are decremented as earlier objects are planned: both
// backend kinds shrink Free by exactly the object size on a successful store,
// so the shadow gives each object the inputs it would see if the earlier ones
// were stored one at a time. ids, lats, and tiers (each at least len(metas)
// long) receive each stored object's id, write latency, and tier index. It
// returns the number of objects stored and, when that number i is <
// len(metas), object i's error; objects [0, i) are stored exactly as
// PutBatch(metas[:i]) would store them, and object i and every later one
// leave no trace (see BatchPutter).
func (m *Manager) PutBatch(metas []Meta, ids []ObjectID, lats []time.Duration, tiers []int) (int, error) {
	if len(ids) < len(metas) || len(lats) < len(metas) || len(tiers) < len(metas) {
		return 0, fmt.Errorf("tier: PutBatch output slices shorter than metas")
	}
	infos := m.infos()
	done := 0
	for done < len(metas) {
		idx, perr := m.policy.Place(metas[done], infos)
		if perr == nil && (idx < 0 || idx >= len(m.tiers)) {
			perr = fmt.Errorf("tier: policy chose bad tier %d", idx)
		}
		if perr != nil {
			return done, perr
		}
		infos[idx].Free -= metas[done].Size
		// Extend the run while the policy keeps choosing the same tier. A
		// placement error inside the run surfaces after the run is stored.
		end := done + 1
		var pendErr error
		for end < len(metas) {
			j, err := m.policy.Place(metas[end], infos)
			if err == nil && (j < 0 || j >= len(m.tiers)) {
				err = fmt.Errorf("tier: policy chose bad tier %d", j)
			}
			if err != nil {
				pendErr = err
				break
			}
			if j != idx {
				break
			}
			infos[j].Free -= metas[end].Size
			end++
		}
		got, err := m.flushRun(idx, metas[done:end], ids[done:], lats[done:], tiers[done:])
		done += got
		if err != nil {
			return done, err
		}
		if pendErr != nil {
			return done, pendErr
		}
	}
	return done, nil
}

// flushRun stores one same-tier run of metas on tier idx as one backend
// PutBatch and registers the stored objects. The output slices are
// positioned at the run's start.
func (m *Manager) flushRun(idx int, metas []Meta, ids []ObjectID, lats []time.Duration, tiers []int) (int, error) {
	if cap(m.handleBuf) < len(metas) {
		// Geometric growth: run lengths vary call to call, and exact-size
		// growth would churn an allocation per flush.
		m.handleBuf = make([]uint64, max(len(metas), 2*cap(m.handleBuf)))
	}
	handles := m.handleBuf[:len(metas)]
	got, err := m.tiers[idx].PutBatch(metas, handles, lats)
	for i := 0; i < got; i++ {
		id := m.nextID
		m.nextID++
		m.objects[id] = placed{tier: idx, handle: handles[i], meta: metas[i]}
		ids[i], tiers[i] = id, idx
	}
	return got, err
}

// Get reads an object, returning the read latency and the tier it came from.
func (m *Manager) Get(id ObjectID) (time.Duration, int, error) {
	p, ok := m.objects[id]
	if !ok {
		return 0, 0, fmt.Errorf("tier: no object %d", id)
	}
	lat, err := m.tiers[p.tier].Get(p.handle)
	if err != nil {
		return 0, p.tier, err
	}
	m.perTierReads[p.tier] += p.meta.Size
	return lat, p.tier, nil
}

// planKind is how a ReadPlan run reads its objects.
type planKind uint8

const (
	planGets  planKind = iota // serial Gets by handle
	planSpans                 // GetSpans over resolved spans (SpanGetter)
	planRefs                  // GetRefs over resolved refs (RefGetter)
)

// planRun is one run of consecutive same-tier objects within a ReadPlan.
type planRun struct {
	tier int
	kind planKind
	end  int // exclusive end index into handles
	off  int // index of the run's first object in spans or refs, by kind
}

// ReadPlan caches the resolved read path of an append-only object list so a
// caller that reads the same objects every step (the serving simulator's KV
// pages) pays the id lookup and run grouping once, at append time, instead of
// once per read. GetPlanned(p) performs exactly the device reads, fault
// events, and per-tier accounting of a Get loop over the same ids. An
// object on a SpanGetter or RefGetter tier keeps one entry, a span or a ref;
// a run's entries are contiguous, and GetPlanned hands GetRefs the plan's
// own refs, so the runs it caches in them persist from step to step.
//
// Validity contract: a plan may only be executed while every member object is
// still placed where it was appended. Deleting, forgetting, migrating, or
// reseating a member invalidates the plan from that member on — Truncate
// before deleting a suffix, Reset before anything else. Expiry of an
// MRM-backed member does NOT invalidate the plan: refs observe expiry exactly
// like reads by id.
type ReadPlan struct {
	handles []uint64
	sums    []units.Bytes // prefix sums: sums[i] = total size of objects [0, i)
	spans   []memdev.Span // the span-kind runs' objects, in plan order
	refs    []core.ObjRef // the ref-kind runs' objects, in plan order
	runs    []planRun
}

// Len returns the number of planned objects.
func (p *ReadPlan) Len() int { return len(p.handles) }

// Runs returns the number of consecutive same-tier runs in the plan, letting
// callers account per-tier totals in O(runs) instead of O(objects).
func (p *ReadPlan) Runs() int { return len(p.runs) }

// Run returns run i's tier and its [start, end) range of object indices.
func (p *ReadPlan) Run(i int) (tier, start, end int) {
	if i > 0 {
		start = p.runs[i-1].end
	}
	return p.runs[i].tier, start, p.runs[i].end
}

// Reset empties the plan, keeping capacity.
func (p *ReadPlan) Reset() {
	p.handles = p.handles[:0]
	if len(p.sums) > 0 {
		p.sums = p.sums[:1]
	}
	p.spans = p.spans[:0]
	p.refs = p.refs[:0]
	p.runs = p.runs[:0]
}

// Truncate drops all planned objects at index n and beyond, keeping capacity.
func (p *ReadPlan) Truncate(n int) {
	if n < 0 || n >= len(p.handles) {
		return
	}
	p.handles = p.handles[:n]
	p.sums = p.sums[:n+1]
	for len(p.runs) > 0 {
		last := len(p.runs) - 1
		start := 0
		if last > 0 {
			start = p.runs[last-1].end
		}
		if start >= n {
			p.runs = p.runs[:last]
			continue
		}
		if p.runs[last].end > n {
			p.runs[last].end = n
		}
		break
	}
	// The remaining runs of each kind end where that kind's entries end.
	nSpans, nRefs, start := 0, 0, 0
	for _, run := range p.runs {
		switch run.kind {
		case planSpans:
			nSpans = run.off + run.end - start
		case planRefs:
			nRefs = run.off + run.end - start
		}
		start = run.end
	}
	p.spans, p.refs = p.spans[:nSpans], p.refs[:nRefs]
}

// PlanAppend resolves id once and appends it to the plan, extending the final
// run when the object lives on the same tier as its predecessor. Resolution
// errors match Get's: a missing id fails the manager lookup, an expired or
// deleted MRM object fails ref resolution.
func (m *Manager) PlanAppend(p *ReadPlan, id ObjectID) error {
	pl, ok := m.objects[id]
	if !ok {
		return fmt.Errorf("tier: no object %d", id)
	}
	kind, off := planGets, 0
	switch b := m.tiers[pl.tier].(type) {
	case SpanGetter:
		span, err := b.ResolveSpan(pl.handle)
		if err != nil {
			return err
		}
		kind, off = planSpans, len(p.spans)
		p.spans = append(p.spans, span)
	case RefGetter:
		ref, err := b.ResolveRef(pl.handle)
		if err != nil {
			return err
		}
		kind, off = planRefs, len(p.refs)
		p.refs = append(p.refs, ref)
	}
	p.handles = append(p.handles, pl.handle)
	if len(p.sums) == 0 {
		p.sums = append(p.sums, 0)
	}
	p.sums = append(p.sums, p.sums[len(p.sums)-1]+pl.meta.Size)
	if n := len(p.runs); n > 0 && p.runs[n-1].tier == pl.tier {
		p.runs[n-1].end = len(p.handles)
	} else {
		p.runs = append(p.runs, planRun{tier: pl.tier, kind: kind, end: len(p.handles), off: off})
	}
	return nil
}

// GetPlanned executes the plan: the same device read sequence, fault events,
// per-tier accounting, and error contract as calling Get once per planned id
// in order and stopping at the first error, with the id lookups and run
// grouping already paid at append time. Each run issues through the
// backend's resolved vectored path; a single-span (single-ref) run is
// device-identical to a serial Get. Returns the number of objects read in
// full and the first-failing Get's error.
func (m *Manager) GetPlanned(p *ReadPlan) (int, error) {
	done := 0
	for _, run := range p.runs {
		var (
			n   int
			err error
		)
		switch run.kind {
		case planSpans:
			n, err = m.tiers[run.tier].(SpanGetter).GetSpans(p.spans[run.off : run.off+run.end-done])
		case planRefs:
			n, err = m.tiers[run.tier].(RefGetter).GetRefs(p.refs[run.off : run.off+run.end-done])
		default:
			// No resolved fast path: serial Gets.
			for n < run.end-done {
				if _, err = m.tiers[run.tier].Get(p.handles[done+n]); err != nil {
					break
				}
				n++
			}
		}
		// Prefix sums give the completed objects' total in O(1); integer
		// addition makes it the exact per-object sum.
		m.perTierReads[run.tier] += p.sums[done+n] - p.sums[done]
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// NextHousekeeping reports the earliest pending housekeeping deadline across
// tiers with deadline-driven work (see Housekeeper), letting a discrete-event
// driver segment idle windows so no refresh or expiry fires late.
func (m *Manager) NextHousekeeping() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, t := range m.tiers {
		hk, ok := t.(Housekeeper)
		if !ok {
			continue
		}
		if at, ok := hk.NextDeadline(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// Delete removes an object.
func (m *Manager) Delete(id ObjectID) error {
	p, ok := m.objects[id]
	if !ok {
		return fmt.Errorf("tier: no object %d", id)
	}
	delete(m.objects, id)
	return m.tiers[p.tier].Delete(p.handle)
}

// Forget drops the manager's record of an object without touching the
// backend — used when the backend already dropped it (MRM soft-state expiry).
func (m *Manager) Forget(id ObjectID) {
	delete(m.objects, id)
}

// Reseat re-places an object whose copy on its current tier was lost to an
// uncorrectable error. The failed copy is deleted (tolerating backends that
// already dropped it) and the object is rewritten from its durable upstream
// copy, preferring any tier other than the one that failed; when nothing else
// fits, it is restored in place. The object keeps its id. Returns the write
// latency of the re-placement; callers add their own backoff.
func (m *Manager) Reseat(id ObjectID) (time.Duration, error) {
	p, ok := m.objects[id]
	if !ok {
		return 0, fmt.Errorf("tier: no object %d", id)
	}
	failed := p.tier
	_ = m.tiers[failed].Delete(p.handle)
	delete(m.objects, id)
	infos := m.Tiers()
	masked := make([]Info, len(infos))
	copy(masked, infos)
	masked[failed].Free = 0
	idx, err := m.policy.Place(p.meta, masked)
	if err != nil {
		// Nowhere else fits: restore in place on the failed tier.
		idx, err = m.policy.Place(p.meta, infos)
	}
	if err != nil {
		return 0, fmt.Errorf("tier: reseat %d: %w", id, err)
	}
	h, lat, err := m.tiers[idx].Put(p.meta)
	if err != nil {
		return 0, fmt.Errorf("tier: reseat %d: %w", id, err)
	}
	m.objects[id] = placed{tier: idx, handle: h, meta: p.meta}
	m.reseats++
	return lat, nil
}

// TierOf reports where an object lives.
func (m *Manager) TierOf(id ObjectID) (int, error) {
	p, ok := m.objects[id]
	if !ok {
		return 0, fmt.Errorf("tier: no object %d", id)
	}
	return p.tier, nil
}

// Migrate moves an object to the given tier (read + rewrite).
func (m *Manager) Migrate(id ObjectID, to int) error {
	p, ok := m.objects[id]
	if !ok {
		return fmt.Errorf("tier: no object %d", id)
	}
	if to < 0 || to >= len(m.tiers) {
		return fmt.Errorf("tier: bad destination %d", to)
	}
	if to == p.tier {
		return nil
	}
	if _, err := m.tiers[p.tier].Get(p.handle); err != nil {
		return fmt.Errorf("tier: migrate read: %w", err)
	}
	h, _, err := m.tiers[to].Put(p.meta)
	if err != nil {
		return fmt.Errorf("tier: migrate write: %w", err)
	}
	if err := m.tiers[p.tier].Delete(p.handle); err != nil {
		return fmt.Errorf("tier: migrate cleanup: %w", err)
	}
	p.tier, p.handle = to, h
	m.objects[id] = p
	return nil
}

// Tick advances every tier.
func (m *Manager) Tick(dt time.Duration) error {
	for _, t := range m.tiers {
		if err := t.Tick(dt); err != nil {
			return err
		}
	}
	return nil
}

// TotalEnergy sums tier energy.
func (m *Manager) TotalEnergy() units.Energy {
	var e units.Energy
	for _, t := range m.tiers {
		e += t.Energy()
	}
	return e
}

// ReadTime returns the time to read the given per-tier byte amounts (indexed
// by tier; extra entries are ignored), assuming tiers transfer in parallel
// (independent links): the max of the per-tier transfer times.
func (m *Manager) ReadTime(perTier []units.Bytes) time.Duration {
	var worst time.Duration
	for idx, n := range perTier {
		if idx >= len(m.tiers) || n == 0 {
			continue
		}
		if t := m.readBW[idx].Time(n); t > worst {
			worst = t
		}
	}
	return worst
}

// NumObjects returns the live object count.
func (m *Manager) NumObjects() int { return len(m.objects) }
