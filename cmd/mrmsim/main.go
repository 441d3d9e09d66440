// Command mrmsim runs the MRM reproduction experiments and prints their
// tables. With no flags it runs every experiment.
//
// Usage:
//
//	mrmsim [-exp e1,e7] [-kv-gib 48] [-reqs 24] [-seed 42] [-parallel N]
//
// -parallel bounds the worker pool the sweep-style experiments fan out on
// (default: number of CPUs; 1 = serial). Output is bit-identical at any
// setting — parallelism only changes wall-clock time. -timing prints each
// experiment's wall-clock time to stderr without touching stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mrm"
	"mrm/internal/cellphys"
	"mrm/internal/llm"
	"mrm/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run holds main's body so deferred profile writers execute before exit. It
// writes the experiment tables to stdout and diagnostics to stderr, and
// returns the exit code: 0 on success, 1 if an experiment failed, 2 on a
// flag error. The golden tests call it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mrmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments to run (e1..e30, or all)")
	kvGiB := fs.Uint64("kv-gib", 48, "KV region capacity in GiB for Figure 1")
	reqs := fs.Int("reqs", 24, "requests for the serving comparison (e7)")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"sweep worker-pool size (1 = serial; results are identical at any setting)")
	faultRate := fs.Float64("fault-rate", 1e-3,
		"peak per-read fault rate for the e30 degradation sweep (transient + retention-lapse)")
	faultSeed := fs.Uint64("fault-seed", 7,
		"seed for the deterministic fault streams (e30); results are identical across runs and -parallel settings")
	fleetNodes := fs.Int("fleet-nodes", 1000, "fleetday: node count")
	fleetRate := fs.Float64("fleet-rate", 25, "fleetday: fleet-wide request rate (req/s)")
	fleetHours := fs.Float64("fleet-hours", 24, "fleetday: simulated day length in hours")
	fleetMix := fs.String("fleet-mix", "0.5,0.3,0.2",
		"fleetday: SLA class mix (interactive,throughput,best-effort)")
	fleetWindow := fs.Int("fleet-window", 0,
		"fleetday: streamed execution window in requests (0 = default); peak memory is O(nodes x window)")
	fleetMem := fs.String("fleet-mem", "hbm",
		"fleetday: node memory system (hbm, lpddr, mrm, hbf)")
	progress := fs.Bool("progress", false,
		"fleetday: periodic requests/sec + ETA lines on stderr (stdout tables are unaffected)")
	timing := fs.Bool("timing", false,
		"report per-experiment wall-clock time on stderr (stdout tables are unaffected)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	mrm.SetParallelism(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	// Per-experiment timing is reporting-only: it reads the wall clock but
	// writes to stderr, so the experiment tables on stdout (and the golden
	// files diffed against them) are byte-identical with or without -timing.
	var (
		timingName  string
		timingStart time.Time
	)
	finishTiming := func() {
		if timingName == "" {
			return
		}
		elapsed := time.Since(timingStart) //mrm:allow-nondet -timing reports wall-clock to stderr only; stdout is unaffected
		fmt.Fprintf(stderr, "timing: %-4s %v\n", timingName, elapsed)
		timingName = ""
	}
	run := func(name string) bool {
		if !all && !want[name] {
			return false
		}
		if *timing {
			finishTiming()
			timingName = name
			timingStart = time.Now() //mrm:allow-nondet -timing reports wall-clock to stderr only; stdout is unaffected
		}
		return true
	}
	var failed bool
	fail := func(name string, err error) {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		failed = true
	}

	if run("e1") {
		res := mrm.RunFigure1(units.Bytes(*kvGiB) * units.GiB)
		fmt.Fprintln(stdout, res.Chart)
		fmt.Fprintln(stdout, res.Table)
	}
	if run("e2") {
		_, tab, err := mrm.RunReadWriteRatio(llm.Llama2_70B, llm.B200,
			[]int{1, 8, 32}, []int{1024, 4096, 16384})
		if err != nil {
			fail("e2", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e3") {
		fmt.Fprintln(stdout, mrm.RunCapacityBreakdown(8192, 16))
	}
	if run("e4") {
		res, err := mrm.RunSequentiality(llm.Llama2_70B, 16, 8, 512, 32, *seed)
		if err != nil {
			fail("e4", err)
		} else {
			fmt.Fprintln(stdout, res.Table)
		}
	}
	if run("e5") {
		fmt.Fprintln(stdout, mrm.RunRefreshOverhead().Table)
	}
	if run("e6") {
		fmt.Fprintln(stdout, mrm.RunDeviceComparison())
	}
	if run("e7") {
		p := mrm.DefaultServingParams()
		p.NumReqs = *reqs
		p.Seed = *seed
		_, tab, err := mrm.RunServingComparison(p)
		if err != nil {
			fail("e7", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e8") {
		classes := []time.Duration{
			10 * time.Minute, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour, 10 * units.Year,
		}
		_, tab, err := mrm.RunDCMSweep(cellphys.RRAM, 24*time.Hour, classes)
		if err != nil {
			fail("e8", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e9") {
		_, tab, err := mrm.RunECCBlockSweep(cellphys.RRAM, 24*time.Hour, 1e-18)
		if err != nil {
			fail("e9", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e10") {
		res, err := mrm.RunControlPlane(*seed, 30)
		if err != nil {
			fail("e10", err)
		} else {
			fmt.Fprintln(stdout, res.Table)
		}
	}
	if run("e11") {
		fmt.Fprintln(stdout, mrm.RunDensityRoadmap(llm.Frontier500B))
	}
	if run("e12") {
		_, tab, err := mrm.RunBatchingLimits(llm.GPT3_175B, llm.B200, 4096, []int{1, 4, 16, 64})
		if err != nil {
			fail("e12", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e13") {
		_, tab, err := mrm.RunClassCountAblation(cellphys.RRAM, []int{1, 2, 4, 8}, 5000, *seed)
		if err != nil {
			fail("e13", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e14") {
		_, tab, err := mrm.RunPageSizeAblation(llm.Llama2_70B, []int{1, 4, 16, 64, 256}, 64, *seed)
		if err != nil {
			fail("e14", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e15") {
		idles := []time.Duration{
			time.Minute, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour, 60 * 24 * time.Hour,
		}
		_, tab, err := mrm.RunKeepVsRecompute(llm.Llama2_70B, llm.B200, cellphys.RRAM,
			24*time.Hour, 2048, idles)
		if err != nil {
			fail("e15", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e16") {
		_, tab, err := mrm.RunMLCSweep(cellphys.RRAM, 24*time.Hour)
		if err != nil {
			fail("e16", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e17") {
		_, tab := mrm.RunModelSwap(llm.Llama2_70B)
		fmt.Fprintln(stdout, tab)
	}
	if run("e18") {
		_, tab := mrm.RunIdleKVOffload(llm.Llama2_70B, 4096)
		fmt.Fprintln(stdout, tab)
	}
	if run("e19") {
		p := mrm.DefaultServingParams()
		p.NumReqs = *reqs
		p.Seed = *seed
		_, tab, err := mrm.RunFleetScaleOut(p, []int{1, 2, 4})
		if err != nil {
			fail("e19", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e20") {
		rets := []time.Duration{time.Hour, 24 * time.Hour, 7 * 24 * time.Hour, 10 * units.Year}
		_, tab, err := mrm.RunWearoutLifetime(llm.SplitwiseConv, llm.Llama2_70B,
			units.Bytes(*kvGiB)*units.GiB, rets)
		if err != nil {
			fail("e20", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e21") {
		p := mrm.DefaultServingParams()
		p.NumReqs = 4
		_, tab, err := mrm.RunChunkedPrefill(p, []int{0, 64, 256})
		if err != nil {
			fail("e21", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e22") {
		res, err := mrm.RunPrefixSharing(llm.Llama2_70B, 5, 256, 40, 64, *seed)
		if err != nil {
			fail("e22", err)
		} else {
			fmt.Fprintln(stdout, res.Table)
		}
	}
	if run("e23") {
		_, tab, err := mrm.RunMoEComparison(llm.B200, 2048, []int{1, 4, 16, 64})
		if err != nil {
			fail("e23", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e24") {
		p := mrm.DefaultServingParams()
		p.NumReqs = *reqs
		p.Seed = *seed
		_, tab, err := mrm.RunServingTCO(p)
		if err != nil {
			fail("e24", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e25") {
		_, tab, err := mrm.RunControllerBandwidth(8 * units.GiB)
		if err != nil {
			fail("e25", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e26") {
		_, tab, err := mrm.RunQuantizationSweep(llm.Frontier500B, llm.B200, 4096, 4)
		if err != nil {
			fail("e26", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e27") {
		p := mrm.DefaultServingParams()
		p.NumReqs = *reqs
		p.RatePerSec = 20
		p.Seed = *seed
		_, tab, err := mrm.RunPhaseSplit(p, 1, 1, 200*units.GBps)
		if err != nil {
			fail("e27", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e28") {
		_, tab, err := mrm.RunSpeculative(llm.Llama2_70B, llm.Llama27B, llm.B200, 2048,
			[]int{2, 4, 8}, []float64{0.5, 0.7, 0.9})
		if err != nil {
			fail("e28", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
	}
	if run("e29") {
		_, tab := mrm.RunAcceleratorCount(8192, 8)
		fmt.Fprintln(stdout, tab)
	}
	if run("e30") {
		p := mrm.DefaultServingParams()
		p.NumReqs = *reqs
		p.Seed = *seed
		rates := []float64{0, *faultRate / 100, *faultRate / 10, *faultRate}
		_, tab, err := mrm.RunFaultSweep(p, rates, *faultSeed)
		if err != nil {
			fail("e30", err)
		} else {
			fmt.Fprintln(stdout, tab)
		}
		_, tab2, err := mrm.RunFleetFailover(p, 3, 1, *faultRate, *faultSeed)
		if err != nil {
			fail("e30", err)
		} else {
			fmt.Fprintln(stdout, tab2)
		}
	}
	// fleetday is opt-in only (-exp fleetday): the default million-user day
	// replays ~2.2M requests and takes minutes, not the seconds the e1..e30
	// suite budgets for.
	if want["fleetday"] && run("fleetday") {
		p := mrm.DefaultFleetDayParams()
		p.Nodes = *fleetNodes
		p.Rate = *fleetRate
		p.Duration = time.Duration(*fleetHours * float64(time.Hour))
		p.Seed = *seed
		p.Window = *fleetWindow
		if mix, err := parseMix(*fleetMix); err != nil {
			fail("fleetday", err)
		} else {
			p.Mix = mix
		}
		switch *fleetMem {
		case "hbm":
			p.Memory = mrm.HBMOnly
		case "lpddr":
			p.Memory = mrm.HBMPlusLPDDR
		case "mrm":
			p.Memory = mrm.HBMPlusMRM
		case "hbf":
			p.Memory = mrm.HBMPlusHBF
		default:
			fail("fleetday", fmt.Errorf("unknown -fleet-mem %q", *fleetMem))
		}
		if *progress {
			p.Progress = stderr
		}
		if !failed {
			_, tab, err := mrm.RunFleetDay(p)
			if err != nil {
				fail("fleetday", err)
			} else {
				fmt.Fprintln(stdout, tab)
			}
		}
	}
	finishTiming()
	if failed {
		return 1
	}
	return 0
}

// parseMix parses "a,b,c" into a class-mix triple; RunFleetDay validates the
// probabilities themselves.
func parseMix(s string) ([3]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return [3]float64{}, fmt.Errorf("mix %q: want three comma-separated probabilities", s)
	}
	var mix [3]float64
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &mix[i]); err != nil {
			return [3]float64{}, fmt.Errorf("mix %q: %w", s, err)
		}
	}
	return mix, nil
}
