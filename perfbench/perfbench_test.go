package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"mrm"
	"mrm/internal/tier"
)

// optional lists the optional backend interfaces tier.Manager and
// cluster.NewSim probe for.
var optional = map[string]reflect.Type{
	"Faultable":   reflect.TypeOf((*tier.Faultable)(nil)).Elem(),
	"BERTunable":  reflect.TypeOf((*tier.BERTunable)(nil)).Elem(),
	"BatchGetter": reflect.TypeOf((*tier.BatchGetter)(nil)).Elem(),
	"SpanGetter":  reflect.TypeOf((*tier.SpanGetter)(nil)).Elem(),
	"RefGetter":   reflect.TypeOf((*tier.RefGetter)(nil)).Elem(),
	"Housekeeper": reflect.TypeOf((*tier.Housekeeper)(nil)).Elem(),
	"BatchPutter": reflect.TypeOf((*tier.BatchPutter)(nil)).Elem(),
}

// TestDecoratorParity checks that each decorator implements exactly the
// optional interfaces of the backend it wraps, so a traced manager takes
// the same code paths as an untraced one.
func TestDecoratorParity(t *testing.T) {
	for _, cfg := range []mrm.MemoryConfig{mrm.HBMOnly, mrm.HBMPlusMRM} {
		bare, err := mrm.BuildMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := buildMemory(cfg, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		bb, tb := bare.Manager.Backends(), traced.Manager.Backends()
		if len(bb) != len(tb) {
			t.Fatalf("%v: %d traced backends for %d", cfg, len(tb), len(bb))
		}
		if bare.Manager.Policy() != traced.Manager.Policy() {
			t.Errorf("%v: traced policy %v, want %v", cfg, traced.Manager.Policy(), bare.Manager.Policy())
		}
		for i := range bb {
			for name, iface := range optional {
				w, d := reflect.TypeOf(bb[i]).Implements(iface), reflect.TypeOf(tb[i]).Implements(iface)
				if w != d {
					t.Errorf("%v tier %d: %T implements %s = %v, decorator %T = %v", cfg, i, bb[i], name, w, tb[i], d)
				}
			}
		}
	}
}

// TestTracedReplayMatches checks that tracing changes no simulated output.
func TestTracedReplayMatches(t *testing.T) {
	for _, mem := range []mrm.MemoryConfig{mrm.HBMOnly, mrm.HBMPlusMRM} {
		shape := fleetShape{Nodes: 4, Rate: 0.2, Dur: 10 * time.Minute, Mem: mem}
		plain, err := runReplay(shape, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		traced, err := runReplay(shape, 7, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.res, traced.res) {
			t.Errorf("%v: traced FleetResult differs from untraced", mem)
		}
		if bad := verifyFleet("", shape, false, traced.res); len(bad) > 0 {
			t.Errorf("%v: %v", mem, bad)
		}
		st, _, _ := tr.totals()
		if st.read.calls == 0 || traced.src.reqs.Load() == 0 {
			t.Errorf("%v: decorators saw no reads or generated requests", mem)
		}
		var mrmTicks int64
		for _, m := range tr.mrms {
			mrmTicks += m.st.tick.calls
		}
		if (mem == mrm.HBMPlusMRM) != (mrmTicks > 0) {
			t.Errorf("%v: %d MRM ticks", mem, mrmTicks)
		}
	}
}

// TestPins checks the fleet-day workloads' outputs at the pinned seed.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("replays full workloads")
	}
	for name, shape := range fleetShapes {
		rp, err := runReplay(shape, pinSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad := verifyFleet(name, shape, true, rp.res); len(bad) > 0 {
			t.Errorf("%s: %v", name, bad)
		}
	}
}

// TestDeclaredMetrics checks that the metrics the program reports are the
// ones BENCHMARK.json declares, with the same units.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		program  map[string]string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, m := range c.declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.program) {
			t.Errorf("%s: BENCHMARK.json declares %v, program reports %v", c.kind, got, c.program)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads: BENCHMARK.json declares %v, program runs %v", names, workloads)
	}
}
