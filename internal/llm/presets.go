// Package llm models foundation-model inference as a memory workload: model
// geometry (weights, KV cache, activations), the prefill/decode phase
// structure, and the per-token memory traffic and compute the paper's §2
// characterizes. It is an analytical model, not a neural network — the unit
// of simulation is bytes moved and FLOPs executed, which is all the memory
// architecture questions need.
//
// This file holds every workload calibration constant: model geometries from
// the published architectures, and serving-workload parameters
// (throughputs, context-length medians) following Splitwise [37].
package llm

import (
	"fmt"
	"math"
	"time"

	"mrm/internal/units"
)

// Precision is the numeric format of weights and KV entries.
type Precision int

// Precisions.
const (
	FP32 Precision = iota
	FP16
	FP8
	INT4
)

// Bytes returns bytes per element.
func (p Precision) Bytes() float64 {
	switch p {
	case FP32:
		return 4
	case FP16:
		return 2
	case FP8:
		return 1
	case INT4:
		return 0.5
	default:
		panic(fmt.Sprintf("llm: unknown precision %d", int(p)))
	}
}

// String names the precision.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case FP8:
		return "fp8"
	case INT4:
		return "int4"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ModelConfig is the memory-relevant geometry of a transformer.
type ModelConfig struct {
	Name       string
	Params     float64 // total parameter count
	Layers     int
	Heads      int
	KVHeads    int // < Heads under grouped-query attention
	HeadDim    int
	DModel     int
	Precision  Precision
	MaxContext int

	// Mixture-of-experts geometry: Experts > 0 marks an MoE model where
	// each token activates ActiveExperts of the Experts FFN experts.
	// Attention (and other shared) weights are always read; expert weights
	// are read only when routed to. All experts must stay memory-resident —
	// MoE widens the capacity-vs-read-bandwidth gap the paper discusses
	// under "expert models tailored for specific use cases" (§4).
	Experts       int
	ActiveExperts int
	// SharedFraction is the fraction of parameters outside the experts
	// (attention, embeddings, router); defaults to 1/3 when Experts > 0.
	SharedFraction float64
}

// IsMoE reports whether the model has mixture-of-experts FFNs.
func (m *ModelConfig) IsMoE() bool { return m.Experts > 0 }

// sharedFraction returns the non-expert parameter share.
func (m *ModelConfig) sharedFraction() float64 {
	if m.SharedFraction > 0 {
		return m.SharedFraction
	}
	return 1.0 / 3.0
}

// ExpertsTouched returns the expected number of distinct experts activated
// by a batch of b tokens routing independently (with replacement):
// E·(1 − (1 − a/E)^b).
func (m *ModelConfig) ExpertsTouched(b int) float64 {
	if !m.IsMoE() || b <= 0 {
		return 0
	}
	p := float64(m.ActiveExperts) / float64(m.Experts)
	return float64(m.Experts) * (1 - math.Pow(1-p, float64(b)))
}

// WeightReadBytes returns the weight bytes one forward step must read for a
// batch of b concurrent tokens. Dense models read everything; MoE models
// read the shared weights plus only the experts the batch touched — until
// the batch is large enough to touch them all.
func (m *ModelConfig) WeightReadBytes(b int) units.Bytes {
	w := float64(m.WeightBytes())
	if !m.IsMoE() {
		return units.Bytes(w)
	}
	shared := m.sharedFraction()
	frac := shared + (1-shared)*m.ExpertsTouched(b)/float64(m.Experts)
	return units.Bytes(w * frac)
}

// Validate reports geometry problems.
func (m *ModelConfig) Validate() error {
	switch {
	case m.Params <= 0:
		return fmt.Errorf("llm: %s has no parameters", m.Name)
	case m.Layers <= 0 || m.Heads <= 0 || m.KVHeads <= 0 || m.HeadDim <= 0:
		return fmt.Errorf("llm: %s has bad attention geometry", m.Name)
	case m.KVHeads > m.Heads:
		return fmt.Errorf("llm: %s has more KV heads than heads", m.Name)
	case m.MaxContext <= 0:
		return fmt.Errorf("llm: %s has no context window", m.Name)
	case m.Experts < 0 || (m.Experts > 0 && (m.ActiveExperts <= 0 || m.ActiveExperts > m.Experts)):
		return fmt.Errorf("llm: %s has bad expert geometry", m.Name)
	}
	return nil
}

// WeightBytes returns the resident size of the weights.
func (m *ModelConfig) WeightBytes() units.Bytes {
	return units.Bytes(m.Params * m.Precision.Bytes())
}

// KVBytesPerToken returns the self-attention vector size appended per token:
// K and V, per layer, per KV head, per head dimension.
func (m *ModelConfig) KVBytesPerToken() units.Bytes {
	return units.Bytes(2 * float64(m.Layers*m.KVHeads*m.HeadDim) * m.Precision.Bytes())
}

// KVCacheBytes returns KV cache size at a context length.
func (m *ModelConfig) KVCacheBytes(contextLen int) units.Bytes {
	return m.KVBytesPerToken() * units.Bytes(contextLen)
}

// ActivationBytes estimates the transient activation working set for a batch:
// roughly hidden-state tensors for a handful of layers in flight. The paper
// notes activations are about an order of magnitude smaller than weights and
// KV caches; this estimate reproduces that ratio.
func (m *ModelConfig) ActivationBytes(batch int) units.Bytes {
	perToken := 12 * float64(m.DModel) * m.Precision.Bytes() // qkv+mlp intermediates
	return units.Bytes(perToken * float64(batch*m.Layers) / 4)
}

// FLOPsPerToken returns dense FLOPs to process one token (forward pass):
// the standard 2*params plus attention score work at context length ctx.
func (m *ModelConfig) FLOPsPerToken(ctx int) float64 {
	attn := 4 * float64(m.Layers) * float64(ctx) * float64(m.KVHeads*m.HeadDim)
	return 2*m.Params + attn
}

// Model presets. Geometry from the published architectures; the >500B
// "frontier" preset stands in for the unnamed frontier models the paper
// describes (250 GB–1 TB of weights depending on quantization).
var (
	// Llama27B: 32 layers, 32 heads, d=4096, MHA.
	Llama27B = ModelConfig{
		Name: "Llama2-7B", Params: 6.7e9,
		Layers: 32, Heads: 32, KVHeads: 32, HeadDim: 128, DModel: 4096,
		Precision: FP16, MaxContext: 4096,
	}
	// Llama2_13B: 40 layers, 40 heads, d=5120, MHA.
	Llama2_13B = ModelConfig{
		Name: "Llama2-13B", Params: 1.3e10,
		Layers: 40, Heads: 40, KVHeads: 40, HeadDim: 128, DModel: 5120,
		Precision: FP16, MaxContext: 4096,
	}
	// Llama2_70B: 80 layers, 64 heads, GQA with 8 KV heads, d=8192 — the
	// model Splitwise [37] reports, used for the paper's Figure 1 arithmetic.
	Llama2_70B = ModelConfig{
		Name: "Llama2-70B", Params: 7.0e10,
		Layers: 80, Heads: 64, KVHeads: 8, HeadDim: 128, DModel: 8192,
		Precision: FP16, MaxContext: 4096,
	}
	// GPT3_175B-class MHA model: 96 layers, 96 heads, d=12288. Its
	// ~4.7 MB/token KV vector matches the paper's "a few MBs" [4, 44].
	GPT3_175B = ModelConfig{
		Name: "GPT3-175B", Params: 1.75e11,
		Layers: 96, Heads: 96, KVHeads: 96, HeadDim: 128, DModel: 12288,
		Precision: FP16, MaxContext: 8192,
	}
	// Frontier500B: the paper's ">500 billion weights" frontier class:
	// 250 GB at int4 .. 1 TB+ at fp16 (this preset: fp16, 1 TB).
	Frontier500B = ModelConfig{
		Name: "Frontier-500B", Params: 5.0e11,
		Layers: 120, Heads: 128, KVHeads: 16, HeadDim: 128, DModel: 16384,
		Precision: FP16, MaxContext: 32768,
	}
)

// Mixtral8x7B: the open mixture-of-experts reference: 46.7B total
// parameters, 8 experts with 2 active per token, Llama-like attention.
var Mixtral8x7B = ModelConfig{
	Name: "Mixtral-8x7B", Params: 4.67e10,
	Layers: 32, Heads: 32, KVHeads: 8, HeadDim: 128, DModel: 4096,
	Precision: FP16, MaxContext: 32768,
	Experts: 8, ActiveExperts: 2,
}

// Models lists the presets.
func Models() []ModelConfig {
	return []ModelConfig{Llama27B, Llama2_13B, Llama2_70B, GPT3_175B, Frontier500B, Mixtral8x7B}
}

// ModelByName looks up a preset.
func ModelByName(name string) (ModelConfig, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return ModelConfig{}, fmt.Errorf("llm: no model named %q", name)
}

// Accelerator is the compute side of an AI accelerator package.
type Accelerator struct {
	Name     string
	FLOPS    float64         // dense FP16 FLOP/s
	MemBW    units.Bandwidth // aggregate memory bandwidth
	MemBytes units.Bytes     // on-package memory capacity
	Power    units.Power     // package TDP
}

// JoulesPerFLOP returns the marginal energy per executed FLOP implied by the
// package TDP at full utilization — the compute-side energy model used when
// comparing "recompute the KV cache" against "keep it in memory".
func (a Accelerator) JoulesPerFLOP() float64 {
	if a.FLOPS <= 0 {
		return 0
	}
	return float64(a.Power) / a.FLOPS
}

// Accelerator presets (public spec-sheet figures).
var (
	// B200-class: 8 TB/s HBM3E, 192 GB [51]; dense FP16 ~2.25 PFLOP/s.
	B200 = Accelerator{
		Name: "B200", FLOPS: 2.25e15,
		MemBW: 8 * units.TBps, MemBytes: 192 * units.GiB, Power: 1000,
	}
	// H100-class: 3.35 TB/s HBM3, 80 GB; dense FP16 ~0.99 PFLOP/s.
	H100 = Accelerator{
		Name: "H100", FLOPS: 0.99e15,
		MemBW: 3.35 * units.TBps, MemBytes: 80 * units.GiB, Power: 700,
	}
)

// Workload holds the Splitwise-derived serving parameters used by the
// endurance analysis (Figure 1) and the cluster simulator. Context-length
// medians follow the coding/conversation traces in Splitwise [37]; the
// throughputs are per-machine steady-state figures of the same order as the
// paper's reported prefill/decode rates for Llama2-70B.
type Workload struct {
	Name string
	// Median and lognormal sigma of prompt and output token counts.
	PromptMedian, PromptSigma float64
	OutputMedian, OutputSigma float64
	// Per-machine sustained token throughputs.
	PrefillTokensPerSec float64
	DecodeTokensPerSec  float64
}

// Workload presets.
var (
	// SplitwiseConv: conversation trace (median prompt 1020, output 415).
	SplitwiseConv = Workload{
		Name:         "splitwise-conv",
		PromptMedian: 1020, PromptSigma: 1.2,
		OutputMedian: 415, OutputSigma: 0.9,
		PrefillTokensPerSec: 7000, DecodeTokensPerSec: 600,
	}
	// SplitwiseCode: coding trace (median prompt 1930, short outputs 13).
	SplitwiseCode = Workload{
		Name:         "splitwise-code",
		PromptMedian: 1930, PromptSigma: 1.1,
		OutputMedian: 13, OutputSigma: 1.3,
		PrefillTokensPerSec: 9000, DecodeTokensPerSec: 250,
	}
)

// ServiceLife is the deployment lifetime over which the paper sizes
// endurance requirements.
const ServiceLife = 5 * units.Year

// WeightUpdate scenarios from §3: conservative hourly model refresh and an
// intensive once-per-second update.
var (
	WeightUpdateHourly    = time.Hour
	WeightUpdatePerSecond = time.Second
)
