package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mrm/internal/memdev"
	"mrm/internal/units"
)

// TestGetRefsRunPathFollowsRestripedObjects pins GetRefs' run-charged path
// against the extent-by-extent oracle on a twin across a refresh that moves
// objects straddling zones to fresh zones, which changes their run
// summaries while their epoch stamps go stale. Refreshed weights of 16 KiB
// and 1.5 MiB, and KV pages, are read before and after the refresh; counts,
// stats, energy (bitwise) and the device counters must match the oracle.
func TestGetRefsRunPathFollowsRestripedObjects(t *testing.T) {
	m, o := newFuzzMRM(t), newFuzzMRM(t)
	weights := WriteOptions{Kind: KindWeights, Lifetime: 10 * time.Minute, Policy: PolicyRefresh}
	var refs []ObjRef
	var objs []*object
	for _, x := range []*MRM{m, o} {
		for _, sz := range []units.Bytes{16 * units.KiB, 1536 * units.KiB, 16 * units.KiB, 3 * units.MiB} {
			if _, _, err := x.Put(sz, weights); err != nil {
				t.Fatal(err)
			}
		}
		sizes := []units.Bytes{64 * units.KiB, 64 * units.KiB, 64 * units.KiB}
		if _, err := x.PutBatch(sizes, kvOpts, make([]ObjectID, 3), make([]time.Duration, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for id := ObjectID(0); id < 7; id++ {
		r, err := m.ResolveRef(id)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
		objs = append(objs, o.objects[id])
	}
	read := func(label string) {
		t.Helper()
		n, err := m.GetRefs(refs)
		for _, obj := range objs {
			if _, err := oracleGet(o, obj); err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
		}
		if n != len(refs) || err != nil {
			t.Fatalf("%s: GetRefs = (%d, %v)", label, n, err)
		}
		if sm, so := m.Stats(), o.Stats(); sm != so {
			t.Fatalf("%s: stats %+v, oracle %+v", label, sm, so)
		}
		if em, eo := m.Energy(), o.Energy(); !sameEnergy(em, eo) {
			t.Fatalf("%s: energy %+v, oracle %+v", label, em, eo)
		}
		if dm, do := m.zoned.Device().Stats(), o.zoned.Device().Stats(); dm != do {
			t.Fatalf("%s: device stats %+v, oracle %+v", label, dm, do)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	summary := func() [][]memdev.SizeRun {
		var out [][]memdev.SizeRun
		for _, r := range refs {
			obj := r.obj
			out = append(out, append([]memdev.SizeRun{obj.run0}, obj.runs...))
		}
		return out
	}
	read("before refresh")
	before := summary()
	if len(before[1]) < 2 || len(before[3]) < 3 {
		t.Fatalf("setup: weights do not straddle zones: %v", before)
	}
	for i := 0; i < 4; i++ {
		if err := m.Tick(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := o.Tick(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Refreshes == 0 {
		t.Fatal("setup: no refresh fired")
	}
	read("after refresh")
	if after := summary(); slices.EqualFunc(before, after, slices.Equal[[]memdev.SizeRun]) {
		t.Fatalf("setup: the refresh left every run summary as it was: %v", after)
	}
	for i := 0; i < 50; i++ {
		read("repeated")
	}
}

// cachedRefTwins is a GetRefs twin and its oracle: refs read through GetRefs
// on m, kept between reads as a ReadPlan keeps them, and the same objects
// read by oracleGet on o.
type cachedRefTwins struct {
	t    *testing.T
	m, o *MRM
	refs []ObjRef
	objs []*object
	ids  []ObjectID
}

// read reads every held ref on both twins and requires the same count,
// error text, Stats, energy (bitwise) and device counters. It returns the
// count and error.
func (c *cachedRefTwins) read(label string) (int, error) {
	c.t.Helper()
	wantN, wantErr := 0, error(nil)
	for _, obj := range c.objs {
		if _, wantErr = oracleGet(c.o, obj); wantErr != nil {
			break
		}
		wantN++
	}
	n, err := c.m.GetRefs(c.refs)
	if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		c.t.Fatalf("%s: GetRefs = (%d, %v), oracle (%d, %v)", label, n, err, wantN, wantErr)
	}
	if sm, so := c.m.Stats(), c.o.Stats(); sm != so {
		c.t.Fatalf("%s: stats %+v, oracle %+v", label, sm, so)
	}
	if em, eo := c.m.Energy(), c.o.Energy(); !sameEnergy(em, eo) {
		c.t.Fatalf("%s: energy %+v, oracle %+v", label, em, eo)
	}
	if dm, do := c.m.zoned.Device().Stats(), c.o.zoned.Device().Stats(); dm != do {
		c.t.Fatalf("%s: device stats %+v, oracle %+v", label, dm, do)
	}
	return n, err
}

// readCached reads and requires success with every single-run ref cached
// under the current key afterwards.
func (c *cachedRefTwins) readCached(label string) {
	c.t.Helper()
	if _, err := c.read(label); err != nil {
		c.t.Fatalf("%s: %v", label, err)
	}
	for i, r := range c.refs {
		if len(r.obj.runs) == 0 && r.key != c.m.refKey() {
			c.t.Fatalf("%s: ref %d (object %d) is not cached", label, i, c.ids[i])
		}
	}
}

// readFailing reads, requires an error containing want at some ref, and
// drops every failing ref, as a plan truncates, until a read succeeds.
func (c *cachedRefTwins) readFailing(label, want string) {
	c.t.Helper()
	dropped := 0
	for {
		n, err := c.read(label)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), want) {
			c.t.Fatalf("%s: error %v, want %q", label, err, want)
		}
		c.refs = append(c.refs[:n], c.refs[n+1:]...)
		c.objs = append(c.objs[:n], c.objs[n+1:]...)
		c.ids = append(c.ids[:n], c.ids[n+1:]...)
		dropped++
	}
	if dropped == 0 {
		c.t.Fatalf("%s: no ref failed", label)
	}
	c.readCached(label + ", after the drop")
}

// both applies f to m and then o, requiring the same error.
func (c *cachedRefTwins) both(label string, f func(x *MRM) error) {
	c.t.Helper()
	if em, eo := f(c.m), f(c.o); fmt.Sprint(em) != fmt.Sprint(eo) {
		c.t.Fatalf("%s: twins diverged: %v vs %v", label, em, eo)
	}
}

// TestGetRefsCachedRefsFollowInvalidation holds refs cached by GetRefs
// across every event that can change or kill a member's extents — deleting
// a member or a non-member, Compact, a refresh that restripes an object,
// Tick expiry, a zone expiry and a zone reset under live members — and across
// arming and disarming faults, and requires each read to match the oracle
// twin. Every event but fault arming must move the ref key.
func TestGetRefsCachedRefsFollowInvalidation(t *testing.T) {
	c := &cachedRefTwins{t: t, m: newFuzzMRM(t), o: newFuzzMRM(t)}
	hour := WriteOptions{Kind: KindKVCache, Lifetime: 45 * time.Minute, Policy: PolicyDrop}
	puts := []struct {
		name   string
		size   units.Bytes
		opts   WriteOptions
		member bool
	}{
		// The 10-minute class, refreshed: A fills half a zone, so W
		// straddles two zones as two equal spans (one run of two) until its
		// refresh moves it to the start of a fresh zone (one span).
		{"A", 512 * units.KiB, fuzzOpts[2], true},
		{"W", units.MiB, fuzzOpts[2], true},
		// The 1-hour class, dropped at expiry: one zone of D, E, F and the
		// non-member X.
		{"D", 256 * units.KiB, hour, true},
		{"E", 256 * units.KiB, hour, true},
		{"F", 256 * units.KiB, hour, true},
		{"X", 256 * units.KiB, hour, false},
		// The 24-hour class: G, three zone-sized spans, and H.
		{"G", 3 * units.MiB, fuzzOpts[3], true},
		{"H", 256 * units.KiB, fuzzOpts[3], true},
	}
	byName := map[string]ObjectID{}
	for _, p := range puts {
		c.both("put "+p.name, func(x *MRM) error {
			id, _, err := x.Put(p.size, p.opts)
			byName[p.name] = id
			return err
		})
		if p.member {
			r, err := c.m.ResolveRef(byName[p.name])
			if err != nil {
				t.Fatal(err)
			}
			c.refs = append(c.refs, r)
			c.objs = append(c.objs, c.o.objects[byName[p.name]])
			c.ids = append(c.ids, byName[p.name])
		}
	}
	w := c.m.objects[byName["W"]]
	c.readCached("initial")
	if want := (memdev.SizeRun{Size: 512 * units.KiB, N: 2}); w.run0 != want || len(w.runs) != 0 {
		t.Fatalf("setup: W's runs are %v%v, want %v", w.run0, w.runs, want)
	}
	key := c.m.refKey()
	keyMoved := func(event string, want bool) {
		t.Helper()
		if moved := c.m.refKey() != key; moved != want {
			t.Fatalf("%s: ref key moved = %v, want %v", event, moved, want)
		}
		key = c.m.refKey()
	}

	c.both("delete D", func(x *MRM) error { return x.Delete(byName["D"]) })
	keyMoved("delete member", true)
	c.readFailing("delete member", "core: no object")

	c.both("delete X", func(x *MRM) error { return x.Delete(byName["X"]) })
	keyMoved("delete non-member", true)
	c.readCached("delete non-member")

	for _, x := range []*MRM{c.m, c.o} {
		x.SetFaults(memdev.FaultConfig{Seed: 3, TransientRate: 0.2})
	}
	keyMoved("arm faults", false)
	for i := 0; i < 8; i++ {
		c.read(fmt.Sprintf("faults armed, read %d", i))
	}
	for _, x := range []*MRM{c.m, c.o} {
		x.zoned.Device().SetFaults(memdev.FaultConfig{})
	}
	keyMoved("disarm faults", false)
	c.readCached("faults disarmed")

	c.both("compact", func(x *MRM) error {
		n, err := x.Compact(0.6)
		if err == nil && n == 0 {
			err = fmt.Errorf("no zone reclaimed")
		}
		return err
	})
	keyMoved("compact", true)
	c.readCached("compact")

	refreshes := c.m.Stats().Refreshes
	c.both("refresh", func(x *MRM) error { return x.Tick(9*time.Minute + 36*time.Second) })
	if c.m.Stats().Refreshes == refreshes {
		t.Fatal("setup: W was not refreshed")
	}
	keyMoved("refresh", true)
	c.readCached("refresh")
	if want := (memdev.SizeRun{Size: units.MiB, N: 1}); w.run0 != want || len(w.runs) != 0 {
		t.Fatalf("refresh did not restripe W: runs %v%v, want %v", w.run0, w.runs, want)
	}

	c.both("expiry", func(x *MRM) error { return x.Tick(51 * time.Minute) })
	if c.m.Stats().Expirations == 0 {
		t.Fatal("setup: nothing expired")
	}
	keyMoved("Tick expiry", true)
	c.readFailing("Tick expiry", ErrExpired.Error())

	c.both("zone expiry", func(x *MRM) error {
		if err := x.zoned.Device().Advance(11 * time.Minute); err != nil {
			return err
		}
		if len(x.zoned.ExpireDue()) == 0 {
			return fmt.Errorf("no zone expired")
		}
		return nil
	})
	keyMoved("zone expiry", true)
	c.readFailing("zone expiry", "read from expired zone")

	c.both("zone reset", func(x *MRM) error { return x.zoned.Reset(x.objects[byName["G"]].extents[0].zone) })
	keyMoved("zone reset", true)
	c.readFailing("zone reset", "read from empty zone")
	if len(c.refs) != 1 || c.ids[0] != byName["H"] {
		t.Fatalf("objects %v survived, want H's %d alone", c.ids, byName["H"])
	}
}

// TestGetRefsDeclinesEmptySummary pins the run path on an object whose
// refresh found no free zone: the rewrite leaves no trace, so the object is
// left expired with no extents and an empty summary. getRefsQuiet must
// decline it before charging anything and leave its ref uncached, and GetRefs
// and Get must report ErrExpired for it.
func TestGetRefsDeclinesEmptySummary(t *testing.T) {
	c := &cachedRefTwins{t: t, m: newFuzzMRM(t), o: newFuzzMRM(t)}
	var ids []ObjectID
	c.both("put", func(x *MRM) error {
		ids = ids[:0]
		for _, opts := range []WriteOptions{kvOpts, fuzzOpts[2], kvOpts} {
			id, _, err := x.Put(256*units.KiB, opts)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		// Fill every other zone, so the refresh below finds none free.
		for {
			if _, _, err := x.Put(units.MiB, fuzzOpts[3]); err != nil {
				if errors.Is(err, ErrNoSpace) {
					return nil
				}
				return err
			}
		}
	})
	for _, id := range ids {
		r, err := c.m.ResolveRef(id)
		if err != nil {
			t.Fatal(err)
		}
		c.refs, c.objs, c.ids = append(c.refs, r), append(c.objs, c.o.objects[id]), append(c.ids, id)
	}
	c.readCached("before the refresh")
	c.both("failed refresh", func(x *MRM) error {
		if err := x.Tick(9*time.Minute + 36*time.Second); !errors.Is(err, ErrNoSpace) {
			return fmt.Errorf("refresh: %v, want ErrNoSpace", err)
		}
		return nil
	})
	lost := c.m.objects[ids[1]]
	if lost.state != objExpired || len(lost.extents) != 0 {
		t.Fatalf("object %d is %v with %d extents, want expired with none", ids[1], lost.state, len(lost.extents))
	}
	if _, err := c.m.Get(ids[1]); !errors.Is(err, ErrExpired) {
		t.Fatalf("Get after the failed refresh: %v, want ErrExpired", err)
	}
	if err := c.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	before, energy := c.m.zoned.Device().Stats(), c.m.Energy()
	if c.m.getRefsQuiet(c.refs) {
		t.Fatal("getRefsQuiet took an expired object")
	}
	if c.m.zoned.Device().Stats() != before || !sameEnergy(c.m.Energy(), energy) {
		t.Fatal("getRefsQuiet charged reads before declining")
	}
	for i := 0; i < 3; i++ {
		if n, err := c.read(fmt.Sprintf("read %d", i)); n != 1 || !errors.Is(err, ErrExpired) {
			t.Fatalf("read %d: GetRefs = (%d, %v), want (1, ErrExpired)", i, n, err)
		}
		if r := c.refs[1]; r.key == c.m.refKey() {
			t.Fatalf("read %d: the ref to the expired object is cached: %+v", i, r)
		}
	}
}
