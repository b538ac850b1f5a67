// A DNN component: one node of a FluidFaaS function's internal DAG.
//
// FluidFaaS never inspects a component's kernels — it consumes the profile
// produced by BUILDDAG mode: memory footprint and execution latency on each
// MIG size (paper §5.2). ComponentSpec is exactly that profile, with the
// latency-vs-GPC relation expressed as an Amdahl-style scaling law:
//
//     t(g) = t(1) * (serial_fraction + (1 - serial_fraction) / g)
//
// which captures the empirical sub-linear speedup of inference kernels on
// larger MIG slices.
#pragma once

#include <string>

#include "common/types.h"

namespace fluidfaas::model {

/// The six component classes of the paper's applications (Table 4), plus
/// the LLM-serving stages of §5.2.3's extension (tokenization, transformer
/// layer groups, response generation).
enum class ComponentClass {
  kSuperResolution,    // SRGAN
  kSegmentation,       // DeepLabV3
  kClassification,     // ResNet50
  kDeblur,             // DeblurGAN
  kDepthEstimation,    // MiDaS
  kBackgroundRemoval,  // U2-Net
  kTokenizer,          // LLM: prompt tokenization + embedding
  kTransformerLayers,  // LLM: a contiguous group of transformer blocks
  kDetokenizer,        // LLM: sampling + detokenization ("response gen.")
};

const char* Name(ComponentClass c);

struct ComponentSpec {
  ComponentId id;
  std::string name;
  ComponentClass cls;

  /// Model weights; this is what gets checkpointed to CPU memory on
  /// eviction and reloaded on a warm start.
  Bytes weights = 0;
  /// Working memory (activations, workspace) at this variant's batch size.
  Bytes activations = 0;

  /// Latency on a single GPC at this variant's batch size.
  SimDuration latency_1gpc = 0;
  /// Serial (non-parallelizable) fraction of that latency.
  double serial_fraction = 0.1;

  /// Probability the component actually executes per request (1.0 for
  /// unconditional nodes; <1 for branch arms like App 3's conditional
  /// super-resolution step).
  double exec_probability = 1.0;

  /// Size of the output tensor handed to successors.
  Bytes output_bytes = 0;

  /// Total resident memory this component needs on its MIG slice.
  Bytes MemoryRequired() const { return weights + activations; }

  /// Execution latency on a slice with `gpcs` GPCs (unconditional; callers
  /// weight by exec_probability where expectation is wanted).
  SimDuration LatencyOnGpcs(int gpcs) const;

  /// exec_probability-weighted latency, used for pipeline balancing.
  SimDuration ExpectedLatencyOnGpcs(int gpcs) const;
};

}  // namespace fluidfaas::model
