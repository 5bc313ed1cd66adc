// The fused coarse kernel (paper §3.1 / Algorithm 1) as a reusable
// per-block unit: one lane = one subject sequence, hit detection + two-hit
// logic + inline ungapped extension run to completion in a single launch.
// Two callers share it, kernel and output-growth policy alike: the adaptive
// pre-filter router (DESIGN.md §13) serves dense database blocks with it,
// and the CUDA-BLASTP / GPU-BLASTP reproductions (baselines/coarse_gpu.hpp)
// run every block through it.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "blast/types.hpp"
#include "core/device_data.hpp"
#include "simt/engine.hpp"

namespace repro::core {

/// Profile-registry name of the fused kernel (shared with the baselines).
inline constexpr const char* kKernelCoarse = "coarse_fused";

struct CoarseBlockConfig {
  blast::SearchParams params;
  int grid_blocks = 8;
  int block_threads = 128;
  /// GPU-BLASTP's atomic work queue vs CUDA-BLASTP's static assignment.
  /// The core router always uses the static assignment (deterministic for
  /// any engine worker count); the baselines choose per reproduction.
  bool dynamic_queue = false;
};

struct CoarseBlockOutput {
  /// Qualifying extensions (score >= ungapped_cutoff), database seq ids.
  std::vector<blast::UngappedExtension> extensions;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t hits_detected = 0;
  std::uint64_t extensions_run = 0;  ///< two-hit triggers (extension calls)
};

/// Runs the fused kernel over one resident block with bounded output
/// growth. The per-grid-block output capacity starts at `initial_capacity`;
/// an overflowing launch discards its output, bumps `overflow_retries` and
/// re-runs at double the capacity, at most `max_retries` times, after which
/// it throws SearchError{kBinOverflowExhausted}. On success the D2H copy
/// ("d2h_extensions") is priced and extension seq ids are made global
/// (block.first_seq added).
[[nodiscard]] CoarseBlockOutput run_coarse_block(
    simt::Engine& engine, const CoarseBlockConfig& config,
    const QueryDevice& query, const BlockDevice& block,
    std::uint32_t initial_capacity, int max_retries,
    std::uint64_t& overflow_retries);

}  // namespace repro::core
