// Kernel launching: grids of blocks of warps, executed deterministically.
//
// A kernel is a function of BlockCtx. Within a block, parallel regions are
// expressed with BlockCtx::par(...), which runs the region for every warp
// of the block; consecutive par() calls are separated by an implicit
// __syncthreads() barrier (warps of a region complete before the next
// region starts), which is exactly the structure block-cooperative GPU
// algorithms (e.g. the segmented bitonic sort) need.
//
// Kernels and regions are taken as template parameters, not std::function:
// launch() and par() sit on the hot path of every simulated instruction, so
// the callable must be inlinable and must not allocate. The non-template
// bookkeeping (validation, occupancy, cost model, profile registry) lives
// in engine.cpp behind small helpers.
//
// Execution modes:
//  - serial (workers == 1, the default): blocks run in grid order 0..N-1,
//    exactly as the original engine did.
//  - SM-sharded parallel (set_workers(n > 1)): worker w owns the SMs
//    {s : s % num_workers == w} and runs each owned SM's blocks
//    (b = s, s + num_sms, s + 2*num_sms, ...) in increasing order. Because
//    a block's SM assignment is b % num_sms in both modes, every per-SM
//    read-only cache observes the same access sequence as serial execution,
//    and each worker accumulates into a private KernelStats shard that is
//    merged deterministically (in shard order) after the join — so metrics
//    and results are bit-identical for any worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/cost_model.hpp"
#include "simt/device.hpp"
#include "simt/metrics.hpp"
#include "simt/occupancy.hpp"
#include "simt/rocache.hpp"
#include "simt/shared_memory.hpp"
#include "simt/simtcheck.hpp"
#include "simt/warp.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace repro::simt {

struct LaunchConfig {
  std::string name;
  int grid_blocks = 1;
  int block_threads = 128;   ///< must be a positive multiple of 32
  int regs_per_thread = 32;  ///< declared estimate, feeds occupancy
};

/// Device-layer failure (transfer or launch) — the software analogue of a
/// nonzero cudaError_t. Kept simt-local so the core pipeline can translate
/// it into its own SearchError taxonomy; allocation failures surface as
/// std::bad_alloc from DeviceAllocator, matching cudaMalloc semantics.
class DeviceError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Execution context of one block. The shared arena belongs to the launch
/// shard running the block; constructing the context re-arms it.
class BlockCtx {
 public:
  BlockCtx(KernelStats& stats, ReadOnlyCache* rocache, int block_id,
           int grid_blocks, int warps_per_block, SharedMemory& shared,
           BlockChecker* check = nullptr)
      : stats_(&stats),
        rocache_(rocache),
        block_id_(block_id),
        grid_blocks_(grid_blocks),
        warps_per_block_(warps_per_block),
        shared_(&shared),
        check_(check) {
    shared_->begin_block(check_);
  }

  [[nodiscard]] int block_id() const { return block_id_; }
  [[nodiscard]] int grid_blocks() const { return grid_blocks_; }
  [[nodiscard]] int warps_per_block() const { return warps_per_block_; }
  [[nodiscard]] SharedMemory& shared() { return *shared_; }

  /// Runs `region` for every warp of the block, then joins (barrier).
  /// With the hazard analyzer attached, each region is one barrier epoch
  /// and every warp's mask is checked at the implicit barrier (synccheck).
  template <class Region>
  void par(Region&& region) {
    if (check_ != nullptr) check_->begin_region();
    for (int w = 0; w < warps_per_block_; ++w) {
      WarpExec warp(*stats_, rocache_, block_id_, w, warps_per_block_,
                    grid_blocks_, check_);
      region(warp);
      if (check_ != nullptr) check_->on_barrier(w, warp.active_mask());
    }
  }

 private:
  KernelStats* stats_;
  ReadOnlyCache* rocache_;
  int block_id_;
  int grid_blocks_;
  int warps_per_block_;
  SharedMemory* shared_;
  BlockChecker* check_;
};

class Engine {
 public:
  explicit Engine(DeviceSpec spec = {}, CostModel cost = {});

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }

  /// Enables/disables the read-only cache model (paper Fig. 17 toggle).
  void set_readonly_cache_enabled(bool enabled);

  /// Sets the number of host worker threads used to execute blocks.
  /// Clamped to [1, num_sms] — SMs are the sharding unit, so more workers
  /// than SMs cannot help. 1 (the default) keeps the original serial walk.
  /// Any value produces bit-identical metrics and results.
  void set_workers(int workers);
  [[nodiscard]] int workers() const { return workers_; }

  /// Enables the simtcheck hazard analyzer (racecheck/synccheck/memcheck/
  /// initcheck; see simtcheck.hpp). Defaults to the REPRO_SIMTCHECK
  /// environment toggle. Enabling also turns on the sticky process-wide
  /// device-shadow switch so allocations made from here on carry initcheck
  /// definedness state (allocations that predate it are grandfathered
  /// all-defined). Disabled, instrumentation is one predictable branch per
  /// op and every metric stays bit-identical.
  void set_simtcheck_enabled(bool enabled) {
    simtcheck_enabled_ = enabled;
    if (enabled) set_device_shadow_enabled(true);
  }
  [[nodiscard]] bool simtcheck_enabled() const { return simtcheck_enabled_; }

  /// Hazards accumulated across every checked launch of this engine.
  [[nodiscard]] const HazardReport& hazards() const { return hazards_; }
  void clear_hazards() { hazards_.clear(); }

  /// Caller-owned cooperative cancel flag (null = none, the default). When
  /// it reads true mid-launch, remaining blocks/shards of the launch are
  /// skipped — the launch returns partial stats and the caller is expected
  /// to abort the query at its next cancellation checkpoint. A flag that
  /// never fires leaves every result and metric bit-identical. The session
  /// layer installs the active request's flag around each query so
  /// service-side cancellation reaches shard granularity.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

  /// Launches a kernel and returns its measured stats (time filled in by
  /// the cost model, occupancy from the launch shape and the shared-memory
  /// high-water mark). Also accumulates into the profile registry.
  template <class Kernel>
  KernelStats launch(const LaunchConfig& config, Kernel&& kernel) {
    const int warps_per_block = validate_launch(config);
    // One span per kernel launch; block count / occupancy / modeled ms are
    // attached after the cost model runs. Disabled tracing is the single
    // relaxed-load branch inside the TraceSpan constructor.
    util::TraceSpan span(config.name, "kernel");
    KernelStats stats = begin_stats(config);
    std::size_t shared_high_water = 0;

    // Opt-in hazard analyzer: one slot per block so any worker schedule
    // produces the same report (merged in block-id order in finalize()).
    std::unique_ptr<LaunchChecker> checker;
    if (simtcheck_enabled_)
      checker =
          std::make_unique<LaunchChecker>(config.name, config.grid_blocks);

    // One shared-memory arena per shard; every BlockCtx re-arms it as if
    // new (SharedMemory::begin_block).
    const int shards = shard_count(config.grid_blocks);
    if (shards <= 1) {
      SharedMemory arena(spec_.shared_mem_per_block);
      for (int b = 0; b < config.grid_blocks; ++b) {
        if (cancel_flag_ != nullptr &&
            cancel_flag_->load(std::memory_order_acquire))
          break;  // partial stats; the caller aborts at its next checkpoint
        // Round-robin block -> SM assignment for the read-only cache model.
        ReadOnlyCache* cache =
            rocache_enabled_
                ? &sm_caches_[static_cast<std::size_t>(b % spec_.num_sms)]
                : nullptr;
        BlockCtx block(stats, cache, b, config.grid_blocks, warps_per_block,
                       arena, checker ? &checker->block(b) : nullptr);
        kernel(block);
        shared_high_water =
            std::max(shared_high_water, block.shared().high_water());
      }
    } else {
      // Each worker owns a disjoint set of SMs and therefore a disjoint set
      // of blocks and caches; stats go to a private shard. Kernels may still
      // share global buffers across blocks only through WarpExec's global
      // atomics, which use real std::atomic RMWs.
      std::vector<KernelStats> shard_stats(static_cast<std::size_t>(shards));
      std::vector<std::size_t> shard_high(static_cast<std::size_t>(shards), 0);
      pool_->run_shards(
          static_cast<std::size_t>(shards), [&](std::size_t shard) {
            util::TraceSpan shard_span;
            if (util::trace_enabled()) {
              shard_span.open(config.name + "/shard", "simt.shard");
              shard_span.arg("shard", static_cast<std::uint64_t>(shard));
            }
            KernelStats& local = shard_stats[shard];
            SharedMemory arena(spec_.shared_mem_per_block);
            std::size_t high = 0;
            for (int sm = static_cast<int>(shard); sm < spec_.num_sms;
                 sm += shards) {
              ReadOnlyCache* cache =
                  rocache_enabled_
                      ? &sm_caches_[static_cast<std::size_t>(sm)]
                      : nullptr;
              for (int b = sm; b < config.grid_blocks; b += spec_.num_sms) {
                BlockCtx block(local, cache, b, config.grid_blocks,
                               warps_per_block, arena,
                               checker ? &checker->block(b) : nullptr);
                kernel(block);
                high = std::max(high, block.shared().high_water());
              }
            }
            shard_high[shard] = high;
          },
          cancel_flag_);
      // Deterministic merge: shard order is fixed and every counter is a
      // sum (or max), so totals match serial execution bit-for-bit.
      for (std::size_t s = 0; s < shard_stats.size(); ++s) {
        stats += shard_stats[s];
        shared_high_water = std::max(shared_high_water, shard_high[s]);
      }
    }

    // After the join: merge per-block hazards + the cross-block global
    // store analysis, deterministically, on the launching thread.
    if (checker) stats.simtcheck_hazards = checker->finalize(hazards_);

    KernelStats out = finalize_launch(config, stats, shared_high_water);
    if (span.active()) {
      span.arg("grid_blocks", config.grid_blocks);
      span.arg("block_threads", config.block_threads);
      span.arg("workers", shards);
      span.arg("occupancy", out.occupancy);
      span.arg("modeled_ms", out.time_ms);
    }
    return out;
  }

  /// Models a PCIe transfer and accounts it under `label` in the profile.
  double transfer(const std::string& label, std::uint64_t bytes);

  [[nodiscard]] ProfileRegistry& profile() { return profile_; }
  [[nodiscard]] const ProfileRegistry& profile() const { return profile_; }

  /// Clears the per-SM read-only caches (cold-start boundary).
  void reset_caches();

 private:
  /// Throws on an invalid launch shape; returns warps per block.
  int validate_launch(const LaunchConfig& config) const;
  /// Stats header for a launch (name, shape, block count).
  KernelStats begin_stats(const LaunchConfig& config) const;
  /// Occupancy + cost model + profile accumulation; returns final stats.
  KernelStats finalize_launch(const LaunchConfig& config, KernelStats stats,
                              std::size_t shared_high_water);
  /// How many worker shards to use for a launch of `grid_blocks` blocks.
  [[nodiscard]] int shard_count(int grid_blocks) const {
    if (workers_ <= 1 || !pool_) return 1;
    return std::min({workers_, spec_.num_sms, grid_blocks});
  }

  DeviceSpec spec_;
  CostModel cost_;
  bool rocache_enabled_ = true;
  bool simtcheck_enabled_ = false;
  int workers_ = 1;
  const std::atomic<bool>* cancel_flag_ = nullptr;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<ReadOnlyCache> sm_caches_;
  ProfileRegistry profile_;
  HazardReport hazards_;
};

}  // namespace repro::simt
