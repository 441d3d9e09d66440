// Command perfbench is the repository's benchmark. It drives the public
// APIs of the simulator from outside: streamed fleet-day replays on HBM-only
// and HBM+MRM nodes, and an in-process mrmd daemon under an open-loop load.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload fleetday-hbm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones. Progress and
// diagnostics go to standard error. perfbench/README.md explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// result is the benchmark's output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

var workloads = []string{"fleetday-hbm", "fleetday-mrm", "mrmd-code"}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: fleetday-hbm, fleetday-mrm or mrmd-code")
	seed := flag.Uint64("seed", pinSeed, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.Parse()
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log("perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	log("perfbench: %s, GOMAXPROCS %d, NumCPU %d, %s/%s", runtime.Version(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	budget := time.Duration(*seconds) * time.Second
	traced := *trace == 1
	var res result
	var err error
	switch *workload {
	case "fleetday-hbm", "fleetday-mrm":
		res, err = runFleetDay(*workload, *seed, budget, traced, log)
	case "mrmd-code":
		res, err = runMrmd(*seed, budget, traced, log)
	default:
		log("perfbench: unknown --workload %q (want one of %v)", *workload, workloads)
		return 2
	}
	if err != nil {
		log("perfbench: %v", err)
		return 1
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if err := complete(res.Metrics, want); err != nil {
		log("perfbench: %v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		log("perfbench: %v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares, with
// their units.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"replay_rps":  "1/s",
	"p50_ms":      "ms",
	"p90_ms":      "ms",
	"peak_rss_mb": "MB",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		"cluster.gen.requests":      "count",
		"cluster.gen.busy_ms":       "ms",
		"dispatch.ms.p50":           "ms",
		"dispatch.ms.p99":           "ms",
		"dispatch.ok_frac":          "frac",
		"cluster.sim.tokens_out":    "count",
		"cluster.host_ns_per_token": "ns",
		"cluster.self_ms":           "ms",
		"mem.read_bytes":            "B",
		"mem.write_bytes":           "B",
		"mem.rw_ratio":              "ratio",
		"go.gc_cpu_frac":            "frac",
		"go.alloc_mb":               "MB",
		"go.gc_cycles":              "count",
		"trace.slowdown":            "ratio",
	}
	for _, op := range []string{"tier.read", "tier.write", "tier.delete", "tier.tick", "tier.resolve"} {
		m[op+".calls"] = "count"
		m[op+".objs"] = "count"
		m[op+".busy_ms"] = "ms"
	}
	return m
}()

// complete checks that got holds exactly the declared metrics, with their
// declared units and finite, positive values. A metric that reads 0 on a
// workload says nothing there, so every declared metric is one that every
// workload exercises.
func complete(got metricSet, want map[string]string) error {
	var missing []string
	for name := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared with that unit", name, m.Unit)
		}
		if !(m.Value > 0) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s reads %v; every metric must be finite and positive", name, m.Value)
		}
	}
	return nil
}
