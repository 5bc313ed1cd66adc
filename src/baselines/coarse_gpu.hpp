// Coarse-grained GPU comparators (paper §5, Fig. 18e-h, Fig. 19):
//
//  * CudaBlastpSim — models CUDA-BLASTP [29]: one thread per subject
//    sequence runs the fused, interleaved hit-detection + ungapped-
//    extension loop of Algorithm 1 (per-thread lasthit arrays in global
//    memory); the database is pre-sorted by descending length, its
//    load-balancing trick.
//
//  * GpuBlastpSim — models GPU-BLASTP [26]: the same coarse kernel, but
//    sequences are claimed from a runtime work queue (global atomic
//    ticket), its improvement over static assignment.
//
// Both produce output identical to FSA-BLAST (each lane executes the same
// per-sequence semantics), so the comparison isolates the execution-shape
// differences the paper measures: branch divergence from the one-thread-
// per-alignment mapping and uncoalesced per-thread memory access.
#pragma once

#include <cstdint>
#include <span>

#include "bio/database.hpp"
#include "blast/types.hpp"
#include "core/coarse_block.hpp"
#include "simt/metrics.hpp"
#include "simt/simtcheck.hpp"

namespace repro::baselines {

struct CoarseConfig {
  blast::SearchParams params;
  int grid_blocks = 8;
  int block_threads = 128;
  /// Per-block output-buffer capacity (extensions); doubles on overflow,
  /// at most core::Config{}.max_bin_retries times (then SearchError
  /// kBinOverflowExhausted).
  std::uint32_t block_output_capacity = 4096;
  /// Database blocks (transfers modeled per block, no CPU/GPU overlap —
  /// neither baseline pipelines the way cuBLASTP does).
  std::size_t db_blocks = 4;
  /// Runs the fused kernel under the simtcheck hazard analyzer and fills
  /// CoarseReport::hazards (REPRO_SIMTCHECK also enables it).
  bool simtcheck = false;
};

/// Report mirroring core::SearchReport's fields relevant to the baselines.
struct CoarseReport {
  blast::SearchResult result;
  double kernel_ms = 0.0;  ///< the single fused coarse kernel
  double h2d_ms = 0.0;
  double d2h_ms = 0.0;
  double gapped_seconds = 0.0;
  double traceback_seconds = 0.0;
  double other_seconds = 0.0;
  double total_seconds = 0.0;  ///< serial: kernel + transfers + CPU phases
  std::uint64_t output_overflow_retries = 0;
  simt::ProfileRegistry profile;
  simt::HazardReport hazards;  ///< simtcheck findings (when enabled)

  [[nodiscard]] double critical_ms() const { return kernel_ms; }
};

/// Kernel name in the profile registry. The fused kernel itself lives in
/// core/coarse_block.hpp so the adaptive pre-filter router can reuse it;
/// both callers share one profile row.
inline constexpr const char* kCoarseKernel = core::kKernelCoarse;

/// Each call is one search on a fresh engine: the database blocks are
/// uploaded, the fused kernel runs block by block, and the CPU phases run
/// single-threaded after it (neither baseline pipelines).
[[nodiscard]] CoarseReport cuda_blastp_search(
    std::span<const std::uint8_t> query, const bio::SequenceDatabase& db,
    const CoarseConfig& config);

[[nodiscard]] CoarseReport gpu_blastp_search(
    std::span<const std::uint8_t> query, const bio::SequenceDatabase& db,
    const CoarseConfig& config);

}  // namespace repro::baselines
