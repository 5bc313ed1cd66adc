// A long-lived search session over a scatter–gather fleet of EngineShards
// (DESIGN.md §12, §17): the engines and the device-resident database
// survive across queries.
//
// CuBlastp::search pays the full setup cost on every call — fresh engines
// and a full database upload over the modeled PCIe link. A SearchSession is
// constructed once from a Config and a database and answers any number of
// queries against them:
//
//   core::SearchSession session(config, db);     // config.shards = K
//   auto r1 = session.search(query1);            // uploads the database
//   auto r2 = session.search(query2);            // reuses the device image
//   auto batch = session.search_batch(queries);
//   auto all   = session.search_all_vs_all();    // every DB sequence as query
//
// The database's block split is partitioned contiguously across K shards
// (Config::shards), each owning its own simt::Engine and the device
// residency of its slice (each block uploaded exactly once, lazily, inside
// the first search that touches it). K = 1 is one shard owning every
// block. A query's GPU half (upload, pre-filter, degradation ladder) is
// scattered to every shard — on a fleet worker thread per shard at K > 1,
// on the calling thread at K = 1 — and the per-shard results are gathered
// back in shard order, which is global block order. The CPU half (gapped
// extension + traceback) then runs block by block from the gathering
// thread, each block on its own cpu_threads workers once the shard pool is
// idle, because the host CPU is one shared resource however many modeled
// GPUs the fleet has (and because its host-measured per-task costs feed
// the pipeline model, which oversubscription would distort). Results are
// bit-identical at every K and every worker count:
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
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bio/database.hpp"
#include "core/cancellation.hpp"
#include "core/config.hpp"
#include "core/cublastp.hpp"
#include "core/pipeline.hpp"
#include "core/shard.hpp"
#include "simt/simtprof.hpp"
#include "util/svccheck.hpp"
#include "util/thread_pool.hpp"

namespace repro::core {

namespace detail {
struct QueryRun;  // per-query in-flight state (search_session.cpp)
}  // namespace detail

/// Aggregate result of SearchSession::search_batch: the per-query reports
/// plus what the batch amortized (database residency) and overlapped
/// (modeled cross-query pipeline makespan vs N independent searches).
struct BatchReport {
  std::vector<SearchReport> reports;  ///< one per query, in input order

  /// Wall seconds from each query's GPU-phase start to the end of its CPU
  /// stage.
  std::vector<double> per_query_wall_seconds;
  double batch_wall_seconds = 0.0;  ///< whole-batch wall clock

  // Modeled pipeline (Fig. 12 generalized across queries; see
  // walk_batch_pipeline): the fleet makespan with cross-query overlap, and
  // what N independent one-shot sessions would model (each paying the full
  // database upload, no overlap between queries).
  double modeled_batch_seconds = 0.0;
  double modeled_sequential_seconds = 0.0;

  // Database residency amortization. `h2d_block_bytes` counts what this
  // batch actually uploaded — at most one full database image per session,
  // however many queries ran.
  std::uint64_t h2d_block_bytes = 0;    ///< bytes uploaded during the batch
  std::uint64_t h2d_block_uploads = 0;  ///< block uploads during the batch
  std::uint64_t db_device_bytes = 0;    ///< full device image (what each
                                        ///< sequential search would upload)

  // Pre-filter aggregates summed over the per-query reports (DESIGN.md
  // §13). Zero when Config::prefilter is off.
  std::uint64_t prefilter_sequences = 0;
  std::uint64_t prefilter_survivors = 0;

  [[nodiscard]] double prefilter_pass_rate() const {
    return prefilter_sequences == 0
               ? 0.0
               : static_cast<double>(prefilter_survivors) /
                     static_cast<double>(prefilter_sequences);
  }

  [[nodiscard]] double queries_per_second() const {
    return batch_wall_seconds > 0.0
               ? static_cast<double>(reports.size()) / batch_wall_seconds
               : 0.0;
  }
  [[nodiscard]] double amortized_h2d_bytes_per_query() const {
    return reports.empty() ? 0.0
                           : static_cast<double>(h2d_block_bytes) /
                                 static_cast<double>(reports.size());
  }
  /// Modeled speedup of the batched pipeline over sequential searches.
  [[nodiscard]] double modeled_speedup() const {
    return modeled_batch_seconds > 0.0
               ? modeled_sequential_seconds / modeled_batch_seconds
               : 0.0;
  }

  /// Engine shards in the fleet that produced this batch. Schema v4.
  std::size_t shards = 1;

  /// One machine-readable document for the whole batch (schema
  /// "cublastp.batch_report.v4"): batch aggregates, the per-query terminal
  /// "statuses" array, plus the full per-query search_report.v4 objects.
  /// See core/report.cpp.
  [[nodiscard]] std::string to_json() const;
};

class SearchSession {
 public:
  /// Validates and normalizes the config (same contract as CuBlastp's
  /// constructor), partitions the database's block split contiguously
  /// across `config.shards` fleet units (clamped to [1, db_blocks]; shard s
  /// owns blocks [s*B/K, (s+1)*B/K)), and builds one EngineShard per unit.
  /// An empty database gets one shard owning no blocks. Nothing is uploaded
  /// yet: each block's H2D transfer happens inside the first search that
  /// touches it, so the cost lands in that search's trace and profile.
  SearchSession(Config config, const bio::SequenceDatabase& db);

  SearchSession(const SearchSession&) = delete;
  SearchSession& operator=(const SearchSession&) = delete;

  /// One query, scattered to every shard and gathered in shard (= global
  /// block) order. Engines and database residency persist: the first call
  /// uploads the database, later calls reuse it (their reports carry no
  /// h2d_block time and a warm read-only cache). The report carries one
  /// ShardSummary per shard in its v4 `shards` section; a real fleet pays
  /// the per-query h2d_query/h2d_prefilter uploads once per shard.
  ///
  /// `cancel` (empty by default) is polled cooperatively at every pipeline
  /// stage boundary — shard dispatch, before each block's degradation
  /// ladder, between the ladder's rungs, the gather, before each block's
  /// CPU stage, and before finalization — and its root flag is installed
  /// on every shard engine so an in-flight launch skips its remaining
  /// engine shards. A stopped query throws SearchError{kCancelled} or
  /// {kDeadlineExceeded}; device buffers unwind through their RAII owners
  /// (nothing leaks), and the resident database image stays valid for the
  /// next query. An empty token (or one that never fires) leaves results
  /// bit-identical to the token-less call.
  [[nodiscard]] SearchReport search(std::span<const std::uint8_t> query,
                                    const CancellationToken& cancel = {});

  /// Many queries in input order, each scattered across the fleet.
  /// Per-query reports are bit-identical to sequential search() calls; the
  /// injected fault schedule (Config::fault_schedule), if any, is installed
  /// once around the whole batch. BatchReport::modeled_batch_seconds is the
  /// modeled fleet makespan (the slowest shard's cross-query Fig. 12 walk).
  [[nodiscard]] BatchReport search_batch(
      std::span<const std::span<const std::uint8_t>> queries);

  /// All-vs-all batch mode: every database sequence (the first `limit`
  /// when nonzero) is searched as a query against the whole resident
  /// database. Rides on search_batch — same reports.
  [[nodiscard]] BatchReport search_all_vs_all(std::size_t limit = 0);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const bio::SequenceDatabase& db() const { return *db_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const EngineShard& shard(std::size_t s) const {
    return *shards_[s];
  }

  /// Fleet-total h2d_block bytes uploaded so far; after any fault-free
  /// search this equals db_device_bytes() and never grows again.
  [[nodiscard]] std::uint64_t resident_bytes() const;
  /// Fleet-total block uploads so far (fault-free: one per block, ever).
  [[nodiscard]] std::uint64_t block_uploads() const;
  /// Size of the full database device image — what every one-shot search
  /// pays on the modeled PCIe link before its first kernel. The partition
  /// covers every block exactly once, so this is independent of K.
  [[nodiscard]] std::uint64_t db_device_bytes() const;

  /// The session's continuous profiler: every finished query's per-kernel
  /// ProfileRegistry delta, summed over shards, is folded in (always on —
  /// see DESIGN.md §16). The service layer reads it for status snapshots;
  /// tests and the CLI read it for the Fig. 19-style table.
  [[nodiscard]] const simt::prof::ContinuousProfiler& profiler() const {
    return profiler_;
  }

  /// Writes the profiler's cumulative "cublastp.profile.v1" JSON to
  /// Config::profile_path (or REPRO_PROFILE); no-op when neither is set.
  /// An unrecognized extension throws SearchError{kInvalidArgument}.
  void export_profile() const;

  /// Writes the process metrics registry to Config::metrics_path (or
  /// REPRO_METRICS); no-op when neither is set. An unrecognized extension
  /// throws SearchError{kInvalidArgument}.
  void export_metrics() const;

  /// Leakcheck over the whole session: appends one kDeviceLeak record per
  /// allocation site for every live, non-resident device allocation made
  /// since this session was constructed, and returns the leaked byte
  /// count. The generation counter is process-global, so one scan covers
  /// every shard. The resident database image (DeviceResidentScope-tagged)
  /// is exempt — outliving queries is its job. The service layer calls
  /// this when idle; tests call it after a drain to assert zero.
  std::uint64_t leak_check(simt::HazardReport& sink) const;

 private:
  /// Scatter + gather of one query into `run`: preparation, every shard's
  /// GPU half, then the CPU half and finalization on the calling thread.
  void run_query(std::span<const std::uint8_t> query, detail::QueryRun& run,
                 std::size_t query_index);

  Config config_;
  const bio::SequenceDatabase* db_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  /// K fleet workers ("shard"); null at K = 1, where the one shard runs on
  /// the calling thread.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Guards the gather slots while shard workers publish their results;
  /// named in the svccheck lock-order graph so an inversion against the
  /// service queue lock (core.service.queue) is caught (DESIGN.md §15).
  mutable util::svc::CheckedMutex gather_mu_{"core.sharded.gather"};
  simt::prof::ContinuousProfiler profiler_;
  /// Device generation at construction: the floor for leak_check().
  std::uint64_t session_generation_ = 0;
};

}  // namespace repro::core
