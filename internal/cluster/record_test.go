package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mrm/internal/core"
	"mrm/internal/tier"
	"mrm/internal/units"
)

var update = flag.Bool("update", false, "rewrite the testdata records from the current output")

// pinned compares v's JSON encoding against testdata/<key>.json byte for
// byte, or rewrites the file under -update. JSON keeps every number exact:
// floats encode in their shortest round-trip form, durations and byte counts
// as integers, and map keys sorted. Each record was first written while a
// reference implementation (the tick-by-tick stepping engine, the
// materialized Fleet.Run) produced the identical value, so the files carry
// that oracle forward.
func pinned(t *testing.T, key string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		t.Fatalf("record %s: %v", key, err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", filepath.FromSlash(key)+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to record it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s diverged at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s diverged: %d lines, want %d", path, len(gl), len(wl))
	}
}

// backendRecord is one memory backend's observable totals.
type backendRecord struct {
	Name          string
	Read, Written units.Bytes
	Energy        units.Energy
}

// engineRecord is everything a single-node run exposes: the full Result
// (histogram snapshots included), the unfinished-request list, every
// backend's traffic and energy, and — when an MRM is present — its stats
// and device clock.
type engineRecord struct {
	Result     Result
	Unfinished []Request
	Backends   []backendRecord
	MRMStats   *core.Stats    `json:",omitempty"`
	MRMNow     *time.Duration `json:",omitempty"`
}

// recordEngine captures a finished run's engineRecord.
func recordEngine(res Result, left []Request, m *tier.Manager, mrm *core.MRM) engineRecord {
	rec := engineRecord{Result: res, Unfinished: left}
	infos := m.Tiers()
	for i, b := range m.Backends() {
		r, w := b.Traffic()
		rec.Backends = append(rec.Backends, backendRecord{
			Name: infos[i].Name, Read: r, Written: w, Energy: b.Energy(),
		})
	}
	if mrm != nil {
		st, now := mrm.Stats(), mrm.Now()
		rec.MRMStats, rec.MRMNow = &st, &now
	}
	return rec
}
