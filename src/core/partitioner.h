// CV-based pipeline partitioning (paper §5.2.2, Eq. 1).
//
// The linearized FFS DAG with k components admits 2^(k-1) consecutive
// partitions into stages. For each candidate the partitioner computes the
// coefficient of variation of the stage execution times — lower CV means a
// better-balanced pipeline — and ranks candidates ascending. This ranking is
// computed once per application ("offline"); at launch time the invoker
// walks the ranked list and deploys the first candidate the currently free
// MIG slices can support.
//
// Stage execution time for ranking uses each stage's *minimum feasible*
// profile (smallest profile whose memory holds the stage) — the deployment
// the invoker will most often make on fragmented slices. The trivial
// single-stage candidate has CV = 0 and therefore always ranks first, which
// yields the paper's "avoid pipelines if unnecessary" behaviour for free.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gpu/mig_profile.h"
#include "model/app.h"
#include "model/costs.h"

namespace fluidfaas::core {

/// One stage: the consecutive component range [begin, end) of the
/// linearized DAG, with derived planning data.
struct StagePlan {
  int begin = 0;
  int end = 0;
  Bytes memory = 0;                  // resident memory of the stage
  Bytes weights = 0;                 // reloadable weight bytes
  gpu::MigProfile min_profile;       // smallest profile holding `memory`
  SimDuration time_on_min_profile = 0;

  int size() const { return end - begin; }
};

/// A ranked pipeline candidate.
struct PipelineCandidate {
  std::vector<StagePlan> stages;
  double cv = 0.0;

  int num_stages() const { return static_cast<int>(stages.size()); }
};

/// Expected execution time of components [begin, end) on `gpcs` GPCs.
SimDuration StageLatencyOnGpcs(const model::AppDag& dag, int begin, int end,
                               int gpcs);

/// Resident memory / weights of components [begin, end).
Bytes StageMemory(const model::AppDag& dag, int begin, int end);
Bytes StageWeights(const model::AppDag& dag, int begin, int end);

/// Build a StagePlan; returns nullopt when no profile can hold the stage.
std::optional<StagePlan> MakeStagePlan(const model::AppDag& dag, int begin,
                                       int end);

/// Ranking policies; kCv is the paper's design, the others exist for the
/// ablation bench (bench/ablation_partitioner.cpp).
enum class RankPolicy {
  kCv,            // ascending CV, ties: fewer stages, then lexicographic
  kFewestStages,  // ascending stage count, ties: CV
  kGreedyLatency, // ascending end-to-end latency on min profiles
};

/// Enumerate all feasible consecutive partitions into 1..max_stages stages,
/// ranked by `policy`. Candidates with any infeasible stage are dropped.
std::vector<PipelineCandidate> EnumerateRankedPipelines(
    const model::AppDag& dag, int max_stages,
    RankPolicy policy = RankPolicy::kCv);

/// Minimum profile that can host the whole function monolithically, if any.
std::optional<gpu::MigProfile> MinMonolithicProfile(const model::AppDag& dag);

/// Minimum over ranked multi-or-single-stage candidates of the *largest*
/// min_profile any stage needs — the "MIG to run (FluidFaaS)" column of
/// Table 5: the smallest slice class that suffices when pipelining is
/// allowed.
std::optional<gpu::MigProfile> MinPipelinedProfile(const model::AppDag& dag,
                                                   int max_stages);

std::string ToString(const PipelineCandidate& c);

}  // namespace fluidfaas::core
