// ShardedSession: scatter–gather search over a fleet of EngineShards
// (DESIGN.md §17) — the modeled multi-GPU scale-out of SearchSession.
//
// The database's block split is partitioned contiguously across K shards
// (Config::shards), each owning its own simt::Engine and the device
// residency of its slice. A query's GPU half (upload, pre-filter,
// degradation ladder) is scattered to every shard on a fleet worker
// thread; the per-shard results are gathered back in shard order — which
// is global block order — and the CPU half (gapped extension + traceback)
// then runs block by block from the gathering thread, each block on its
// own cpu_threads workers once the shard pool is idle, because the host
// CPU is one shared resource however many modeled GPUs the fleet has (and
// because its host-measured per-task costs feed the pipeline model, which
// oversubscription would distort). The merged hit lists, alignments,
// counters, and per-block vectors are bit-identical to a single-engine
// SearchSession at every K:
//
//   * Cutoffs, e-values, and the pre-filter threshold derive from one
//     bio::EvalueCalculator built over the AGGREGATE search space
//     (bio::SearchSpace: total residues + total sequences of the whole
//     database), so every shard scores and filters identically.
//   * Sequence indices stay global inside each shard's blocks, so
//     extensions and alignments carry fleet-wide identities and the
//     gather is pure concatenation.
//   * Per-shard degradation (a failed pre-filter table, a faulted block
//     falling to the CPU rung) never poisons siblings: the ladder absorbs
//     the fault inside the owning shard and the merge just records it.
//
//   core::ShardedSession fleet(config, db);   // config.shards = K
//   auto report = fleet.search(query);        // == SearchSession's report
//   auto batch  = fleet.search_batch(queries);
//   auto all    = fleet.search_all_vs_all();  // every DB sequence as query
//
// K = 1 degenerates to today's layout (one shard owning every block).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bio/database.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/cublastp.hpp"
#include "core/search_session.hpp"
#include "core/shard.hpp"
#include "simt/simtprof.hpp"
#include "util/svccheck.hpp"
#include "util/thread_pool.hpp"

namespace repro::core {

class ShardedSession {
 public:
  /// Validates and normalizes the config, partitions the database's block
  /// split contiguously across `config.shards` fleet units (clamped to
  /// [1, db_blocks]; shard s owns blocks [s*B/K, (s+1)*B/K)), and builds
  /// one EngineShard per unit. Nothing is uploaded yet — each shard's
  /// blocks go device-resident inside the first search that touches them.
  ShardedSession(Config config, const bio::SequenceDatabase& db);

  ShardedSession(const ShardedSession&) = delete;
  ShardedSession& operator=(const ShardedSession&) = delete;

  /// One query, scattered to every shard and gathered in shard (= global
  /// block) order. The report is bit-identical to SearchSession::search on
  /// the same config (modulo the per-shard h2d_query/h2d_prefilter uploads
  /// a real fleet pays K times, and address-hashed engine-internal stats),
  /// with one ShardSummary per shard in its v4 `shards` section.
  ///
  /// `cancel` propagates into every shard: the root flag is installed on
  /// each shard engine for launch-level cancellation, not-yet-started
  /// shards are skipped once it fires, and every started shard polls the
  /// block-granularity checkpoints.
  [[nodiscard]] SearchReport search(std::span<const std::uint8_t> query,
                                    const CancellationToken& cancel = {});

  /// Many queries in input order, each scattered across the fleet.
  /// Per-query reports are bit-identical to sequential search() calls;
  /// BatchReport::modeled_batch_seconds is the modeled fleet makespan (the
  /// slowest shard's cross-query pipeline walk).
  [[nodiscard]] BatchReport search_batch(
      std::span<const std::span<const std::uint8_t>> queries);

  /// All-vs-all batch mode: every database sequence (the first `limit`
  /// when nonzero) is searched as a query against the whole resident
  /// database. Rides on search_batch — same overlap, same reports.
  [[nodiscard]] BatchReport search_all_vs_all(std::size_t limit = 0);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const bio::SequenceDatabase& db() const { return *db_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const EngineShard& shard(std::size_t s) const {
    return *shards_[s];
  }

  /// Fleet-total h2d_block bytes resident so far.
  [[nodiscard]] std::uint64_t resident_bytes() const;
  /// Fleet-total block uploads so far.
  [[nodiscard]] std::uint64_t block_uploads() const;
  /// Fleet-total full device image size (equals the single-engine value:
  /// the partition covers every block exactly once).
  [[nodiscard]] std::uint64_t db_device_bytes() const;

  /// Fleet-lifetime continuous profiler (per-kernel deltas of every
  /// finished query, summed over shards).
  [[nodiscard]] const simt::prof::ContinuousProfiler& profiler() const {
    return profiler_;
  }

  /// Writes the profiler's cumulative JSON to Config::profile_path (or
  /// REPRO_PROFILE); no-op when neither is set.
  void export_profile() const;

  /// Leakcheck over the fleet session (same contract as
  /// SearchSession::leak_check; the generation counter is process-global,
  /// so one scan covers every shard's allocations).
  std::uint64_t leak_check(simt::HazardReport& sink) const;

 private:
  /// Scatter + gather of one query into `run` (both halves; the caller
  /// runs detail::finish_search_report afterwards).
  void run_query(std::span<const std::uint8_t> query, detail::QueryRun& run,
                 std::size_t query_index);

  Config config_;
  const bio::SequenceDatabase* db_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< K fleet workers ("shard")
  /// Guards the gather slots while shard workers publish their results;
  /// named in the svccheck lock-order graph so an inversion against the
  /// service queue lock (core.service.queue) is caught (DESIGN.md §15).
  mutable util::svc::CheckedMutex gather_mu_{"core.sharded.gather"};
  simt::prof::ContinuousProfiler profiler_;
  std::uint64_t session_generation_ = 0;
};

}  // namespace repro::core
