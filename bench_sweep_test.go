package mrm

// Benchmarks for the deterministic parallel sweep engine: the same drivers at
// worker-pool sizes 1 (the serial reference) and NumCPU. The interesting
// number is the ns/op ratio between the workers-1 and workers-N variants of
// the same benchmark — the results themselves are identical by construction
// (see parallel_test.go). `make bench-json` captures these in BENCH_all.json.

import (
	"fmt"
	"runtime"
	"testing"

	"mrm/internal/cellphys"
	"mrm/internal/llm"
)

// sweepWorkerCounts are the pool sizes each sweep benchmark runs at.
func sweepWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkSweepServing runs the E7 serving comparison — the heaviest sweep,
// three full cluster simulations per op — at each pool size.
func BenchmarkSweepServing(b *testing.B) {
	p := DefaultServingParams()
	p.NumReqs = 16
	for _, workers := range sweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			old := SetParallelism(workers)
			defer SetParallelism(old)
			var outs []ServingOutcome
			for i := 0; i < b.N; i++ {
				var err error
				outs, _, err = RunServingComparison(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(outs)), "configs")
			b.ReportMetric(outs[len(outs)-1].Result.TokensPerSec, "mrm-tokens/s")
		})
	}
}

// BenchmarkSweepAblations runs the per-sample class-count ablation (E13) and
// the page-size ablation (E14) back to back at each pool size: many small
// cells (5000 lifetime samples) plus a few big ones (page-size populations).
func BenchmarkSweepAblations(b *testing.B) {
	for _, workers := range sweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			old := SetParallelism(workers)
			defer SetParallelism(old)
			var classPts []ClassCountPoint
			for i := 0; i < b.N; i++ {
				var err error
				classPts, _, err = RunClassCountAblation(cellphys.RRAM, []int{1, 2, 4, 8}, 5000, 42)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := RunPageSizeAblation(llm.Llama2_70B, []int{1, 4, 16, 64, 256}, 64, 42); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(classPts[0].MeanStoreJPerGB/classPts[len(classPts)-1].MeanStoreJPerGB,
				"1-class:8-class-J")
		})
	}
}
