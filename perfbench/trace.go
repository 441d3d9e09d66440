package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mrm"
	"mrm/internal/cluster"
	"mrm/internal/core"
	"mrm/internal/memdev"
	"mrm/internal/tier"
)

// opStat counts one operation kind at one layer boundary: calls made,
// objects they touched, and host time spent inside them.
type opStat struct {
	calls, objs int64
	busy        time.Duration
}

func (s *opStat) done(objs int, start time.Time) {
	s.calls++
	s.objs += int64(objs)
	s.busy += time.Since(start)
}

func (s *opStat) merge(o opStat) {
	s.calls += o.calls
	s.objs += o.objs
	s.busy += o.busy
}

// tierStats are the counters a decorator keeps for its backend. A backend is
// only ever driven by one goroutine at a time (its node's), and the tracer
// reads them after the run has been joined, so they need no lock. deadline
// is the MRM's Housekeeper probe; a DeviceTier has none.
type tierStats struct{ read, write, del, tick, resolve, deadline opStat }

func (s *tierStats) merge(o tierStats) {
	s.read.merge(o.read)
	s.write.merge(o.write)
	s.del.merge(o.del)
	s.tick.merge(o.tick)
	s.resolve.merge(o.resolve)
	s.deadline.merge(o.deadline)
}

// busy is the host time spent inside every decorated backend call.
func (s *tierStats) busy() time.Duration {
	return s.read.busy + s.write.busy + s.del.busy + s.tick.busy + s.resolve.busy + s.deadline.busy
}

// tracedDevice decorates a DeviceTier. Embedding the concrete tier forwards
// exactly the optional interfaces it implements (SpanGetter, BatchGetter,
// BatchPutter, Faultable, BERTunable), so tier.Manager and cluster.NewSim
// take the same paths as on the bare tier; the overrides only add timing.
type tracedDevice struct {
	*tier.DeviceTier
	st tierStats
}

func (d *tracedDevice) Put(m tier.Meta) (uint64, time.Duration, error) {
	start := time.Now()
	h, lat, err := d.DeviceTier.Put(m)
	d.st.write.done(1, start)
	return h, lat, err
}

func (d *tracedDevice) PutBatch(metas []tier.Meta, handles []uint64, lats []time.Duration) (int, error) {
	start := time.Now()
	n, err := d.DeviceTier.PutBatch(metas, handles, lats)
	d.st.write.done(len(metas), start)
	return n, err
}

func (d *tracedDevice) Get(handle uint64) (time.Duration, error) {
	start := time.Now()
	lat, err := d.DeviceTier.Get(handle)
	d.st.read.done(1, start)
	return lat, err
}

func (d *tracedDevice) GetBatch(handles []uint64) (int, error) {
	start := time.Now()
	n, err := d.DeviceTier.GetBatch(handles)
	d.st.read.done(len(handles), start)
	return n, err
}

func (d *tracedDevice) GetSpans(spans []memdev.Span) (int, error) {
	start := time.Now()
	n, err := d.DeviceTier.GetSpans(spans)
	d.st.read.done(len(spans), start)
	return n, err
}

func (d *tracedDevice) ResolveSpan(handle uint64) (memdev.Span, error) {
	start := time.Now()
	sp, err := d.DeviceTier.ResolveSpan(handle)
	d.st.resolve.done(1, start)
	return sp, err
}

func (d *tracedDevice) Delete(handle uint64) error {
	start := time.Now()
	err := d.DeviceTier.Delete(handle)
	d.st.del.done(1, start)
	return err
}

func (d *tracedDevice) Tick(dt time.Duration) error {
	start := time.Now()
	err := d.DeviceTier.Tick(dt)
	d.st.tick.done(1, start)
	return err
}

// tracedMRM decorates an MRMTier the same way; embedding forwards RefGetter,
// BatchGetter, BatchPutter, Housekeeper, Faultable and BERTunable.
type tracedMRM struct {
	*tier.MRMTier
	st tierStats
}

func (t *tracedMRM) Put(m tier.Meta) (uint64, time.Duration, error) {
	start := time.Now()
	h, lat, err := t.MRMTier.Put(m)
	t.st.write.done(1, start)
	return h, lat, err
}

func (t *tracedMRM) PutBatch(metas []tier.Meta, handles []uint64, lats []time.Duration) (int, error) {
	start := time.Now()
	n, err := t.MRMTier.PutBatch(metas, handles, lats)
	t.st.write.done(len(metas), start)
	return n, err
}

func (t *tracedMRM) Get(handle uint64) (time.Duration, error) {
	start := time.Now()
	lat, err := t.MRMTier.Get(handle)
	t.st.read.done(1, start)
	return lat, err
}

func (t *tracedMRM) GetBatch(handles []uint64) (int, error) {
	start := time.Now()
	n, err := t.MRMTier.GetBatch(handles)
	t.st.read.done(len(handles), start)
	return n, err
}

func (t *tracedMRM) GetRefs(refs []core.ObjRef) (int, error) {
	start := time.Now()
	n, err := t.MRMTier.GetRefs(refs)
	t.st.read.done(len(refs), start)
	return n, err
}

func (t *tracedMRM) ResolveRef(handle uint64) (core.ObjRef, error) {
	start := time.Now()
	ref, err := t.MRMTier.ResolveRef(handle)
	t.st.resolve.done(1, start)
	return ref, err
}

func (t *tracedMRM) NextDeadline() (time.Duration, bool) {
	start := time.Now()
	at, ok := t.MRMTier.NextDeadline()
	t.st.deadline.done(1, start)
	return at, ok
}

func (t *tracedMRM) Delete(handle uint64) error {
	start := time.Now()
	err := t.MRMTier.Delete(handle)
	t.st.del.done(1, start)
	return err
}

func (t *tracedMRM) Tick(dt time.Duration) error {
	start := time.Now()
	err := t.MRMTier.Tick(dt)
	t.st.tick.done(1, start)
	return err
}

// tracer owns every decorator built during one traced section. Nodes are
// built concurrently (cluster.NewFleet fans out; mrmd rebuilds on its node
// goroutines), so registration takes a lock; the counters themselves are read
// only after the section's goroutines have been joined.
type tracer struct {
	mu   sync.Mutex
	devs []*tracedDevice
	mrms []*tracedMRM
}

func traceKind(tr *tracer) string {
	if tr == nil {
		return "untraced"
	}
	return "traced"
}

// buildMemory builds cfg's memory system. With a tracer, the stock backends
// are wrapped in decorators and handed to a fresh manager under the same
// policy before any object is placed.
func buildMemory(cfg mrm.MemoryConfig, tr *tracer) (*mrm.MemorySystem, error) {
	ms, err := mrm.BuildMemory(cfg)
	if err != nil || tr == nil {
		return ms, err
	}
	backends := ms.Manager.Backends()
	wrapped := make([]tier.Backend, len(backends))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, b := range backends {
		switch t := b.(type) {
		case *tier.DeviceTier:
			d := &tracedDevice{DeviceTier: t}
			tr.devs = append(tr.devs, d)
			wrapped[i] = d
		case *tier.MRMTier:
			m := &tracedMRM{MRMTier: t}
			tr.mrms = append(tr.mrms, m)
			wrapped[i] = m
		default:
			return nil, fmt.Errorf("perfbench: no decorator for backend %T", b)
		}
	}
	m, err := tier.NewManager(ms.Manager.Policy(), wrapped...)
	if err != nil {
		return nil, err
	}
	return &mrm.MemorySystem{Manager: m, ScratchTier: ms.ScratchTier, Description: ms.Description}, nil
}

// totals sums the decorators' counters over every backend of every node,
// and the backends' byte traffic.
func (tr *tracer) totals() (st tierStats, readB, writeB float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, d := range tr.devs {
		st.merge(d.st)
		r, w := d.Traffic()
		readB += float64(r)
		writeB += float64(w)
	}
	for _, m := range tr.mrms {
		st.merge(m.st)
		r, w := m.Traffic()
		readB += float64(r)
		writeB += float64(w)
	}
	return st, readB, writeB
}

// layerMetrics renders the decorator counters as tier.* and mem.* metrics,
// divided by div (the number of traced rounds, or 1). Every metric must be
// measured on every workload, and only two of the three have an MRM, so the
// counters are summed over the DeviceTier and MRMTier backends rather than
// reported per backend. On the HBM+MRM workloads tier.tick is the MRM's
// housekeeping: a DeviceTier tick only advances its clock.
func (tr *tracer) layerMetrics(out metricSet, div float64) {
	st, readB, writeB := tr.totals()
	put := func(prefix string, s opStat) {
		out.add(prefix+".calls", float64(s.calls)/div, "count")
		out.add(prefix+".objs", float64(s.objs)/div, "count")
		out.add(prefix+".busy_ms", ms(s.busy)/div, "ms")
	}
	put("tier.read", st.read)
	put("tier.write", st.write)
	put("tier.delete", st.del)
	put("tier.tick", st.tick)
	put("tier.resolve", st.resolve)
	out.add("mem.read_bytes", readB/div, "B")
	out.add("mem.write_bytes", writeB/div, "B")
	out.add("mem.rw_ratio", readB/writeB, "ratio")
}

// tracedSource decorates a generator stream. Embedding forwards the
// BlockSource methods, so RunStream still shards synthesis across its pool.
// GenerateBlock runs concurrently on pool workers, hence the atomics.
type tracedSource struct {
	*cluster.Stream
	reqs   atomic.Int64 // requests synthesized, over every pass of the fleet over the source
	busyNS atomic.Int64
}

func (s *tracedSource) GenerateBlock(b int, dst []cluster.Request) ([]cluster.Request, time.Duration) {
	start := time.Now()
	n := len(dst)
	dst, adv := s.Stream.GenerateBlock(b, dst)
	s.busyNS.Add(int64(time.Since(start)))
	s.reqs.Add(int64(len(dst) - n))
	return dst, adv
}

func (s *tracedSource) Next() (cluster.Request, bool) {
	start := time.Now()
	r, ok := s.Stream.Next()
	s.busyNS.Add(int64(time.Since(start)))
	if ok {
		s.reqs.Add(1)
	}
	return r, ok
}
