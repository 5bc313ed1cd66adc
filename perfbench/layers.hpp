// Layer-by-layer traced search: the benchmark's own spans around calls into
// each layer's public functions (QueryContext, BlockResidency::ensure,
// run_prefilter, the launch_* kernel launchers, run_block_on_coarse,
// run_block_cpu_stage, run_finalize). The GPU half of a query runs once per
// shard lane, on its own thread when there are several, exactly as
// EngineShard::run_gpu_blocks walks its blocks on a fault-free run, so the
// alignments must equal the public session's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bio/database.hpp"
#include "blast/types.hpp"
#include "core/config.hpp"
#include "simt/engine.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Host span on one thread: [start, end) on std::chrono::steady_clock, the
/// enclosing span, and the modeled device ms its engine charged inside it.
struct Span {
  const char* name = "";
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double modeled_ms = 0.0;
};

/// Spans of one thread of one query, kept in memory until the query ends.
class SpanLog {
 public:
  /// Opens a span; `engine` (optional) attributes modeled time to it.
  int open(const char* name, int parent, const repro::simt::Engine* engine);
  void close(int index, const repro::simt::Engine* engine);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part of the interval its children cover.
  [[nodiscard]] std::int64_t self_ns(int index) const;

 private:
  std::vector<Span> spans_;
  std::vector<double> modeled_at_open_;
};

/// Per-layer sums over every traced query.
struct LayerLedger {
  std::size_t queries = 0;
  double wall_ms = 0.0;          ///< sum of traced query walls
  double unattributed_ms = 0.0;  ///< wall not covered by a layer span
  std::map<std::string, double> host_ms;     ///< layer self time
  std::map<std::string, double> modeled_ms;  ///< device time in the span
  // Work counts.
  std::uint64_t prefilter_seqs = 0;
  std::uint64_t prefilter_survivors = 0;
  std::uint64_t hits_detected = 0;
  std::uint64_t hits_after_filter = 0;
  std::uint64_t gapped_extensions = 0;
  std::uint64_t tracebacks = 0;
  // Fleet shape, per query: slowest lane's GPU-half host ms, and the
  // slowest and mean lane's modeled kernel ms.
  double shard_host_max_ms = 0.0;
  double shard_device_max_ms = 0.0;
  double shard_device_mean_ms = 0.0;
  /// Merged per-kernel statistics of every traced launch.
  repro::simt::ProfileRegistry profile;
};

/// One-time device residency cost, measured when the lanes first upload.
struct ResidencyCost {
  double host_ms = 0.0;
  double h2d_modeled_ms = 0.0;
  std::uint64_t upload_bytes = 0;
};

class TracedSearch {
 public:
  /// Splits the database like a core::ShardedSession with config.shards
  /// lanes; each lane owns an engine and the residency of its blocks, and
  /// the lanes of one query run side by side on a pool of that size.
  TracedSearch(const repro::core::Config& config,
               const repro::bio::SequenceDatabase& db);
  ~TracedSearch();
  TracedSearch(const TracedSearch&) = delete;
  TracedSearch& operator=(const TracedSearch&) = delete;

  /// Uploads every block (the residency layer) and returns its cost.
  ResidencyCost make_resident();

  /// One query, layer by layer; returns the ranked alignments. With
  /// `probe`, the backend the query's route skips then runs over the same
  /// blocks on separate engines (outside the query's spans) and its layer
  /// costs go to `probe`.
  std::vector<repro::blast::Alignment> run(
      std::span<const std::uint8_t> query, LayerLedger& ledger,
      LayerLedger* probe = nullptr);

 private:
  struct Lane;
  repro::core::Config config_;
  const repro::bio::SequenceDatabase* db_;
  repro::util::ThreadPool pool_;  ///< one worker per lane
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Lane>> probe_lanes_;
};

}  // namespace perfbench
