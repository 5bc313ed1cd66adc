#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "core/coarse_block.hpp"
#include "core/errors.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"
#include "core/prefilter.hpp"
#include "core/query_context.hpp"

namespace perfbench {

namespace core = repro::core;
namespace simt = repro::simt;
namespace blast = repro::blast;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double modeled_total(const simt::Engine* engine) {
  return engine != nullptr ? engine->profile().total_time_ms() : 0.0;
}

/// Opens a span on construction and closes it on scope exit.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, int parent,
         const simt::Engine* engine = nullptr)
      : log_(log), engine_(engine), index_(log.open(name, parent, engine)) {}
  ~Scoped() { log_.close(index_, engine_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  const simt::Engine* engine_;
  int index_;
};

/// Length of the union of `intervals` clipped to [start, end).
std::int64_t covered_ns(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [from, to] : intervals) {
    from = std::max(from, cursor);
    to = std::min(to, end);
    if (to > from) {
      covered += to - from;
      cursor = to;
    }
  }
  return covered;
}

}  // namespace

int SpanLog::open(const char* name, int parent, const simt::Engine* engine) {
  Span span;
  span.name = name;
  span.parent = parent;
  modeled_at_open_.push_back(modeled_total(engine));
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index, const simt::Engine* engine) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  span.modeled_ms =
      modeled_total(engine) - modeled_at_open_[static_cast<std::size_t>(index)];
}

std::int64_t SpanLog::self_ns(int index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& child : spans_)
    if (child.parent == index) children.emplace_back(child.start_ns, child.end_ns);
  return span.end_ns - span.start_ns -
         covered_ns(span.start_ns, span.end_ns, std::move(children));
}

struct TracedSearch::Lane {
  Lane(const core::Config& config, const repro::bio::SequenceDatabase& db,
       std::vector<std::pair<std::size_t, std::size_t>> blocks)
      : residency(db, std::move(blocks)) {
    engine.set_readonly_cache_enabled(config.use_readonly_cache);
    engine.set_workers(config.engine_workers);
  }

  /// The fine K1-K5 chain for one block, with run_block_on_gpu's bounded
  /// bin-capacity growth; extension seq indices rebased to global.
  std::vector<blast::UngappedExtension> run_fine(
      const core::Config& config, const core::QueryDevice& query,
      const core::BlockDevice& block, core::SurvivorView survivors,
      std::uint32_t& bin_capacity, SpanLog& log, int parent) {
    for (int retry = 0;; ++retry) {
      std::optional<core::BinGrid> bins;
      core::DetectionResult detection;
      {
        Scoped span(log, "detection", parent, &engine);
        bins.emplace(config.detection_warps(), config.num_bins_per_warp,
                     bin_capacity);
        detection = core::launch_hit_detection(engine, config, query, block,
                                               *bins, survivors);
      }
      if (!detection.overflowed) {
        std::optional<core::AssembledBins> assembled;
        {
          Scoped span(log, "assemble", parent, &engine);
          assembled.emplace(core::launch_assemble(engine, *bins));
          bins.reset();
        }
        {
          Scoped span(log, "sort", parent, &engine);
          core::launch_sort(engine, *assembled);
        }
        std::optional<core::FilteredBins> filtered;
        {
          Scoped span(log, "filter", parent, &engine);
          filtered.emplace(core::launch_filter(engine, config, *assembled));
          assembled.reset();
        }
        Scoped span(log, "extension", parent, &engine);
        core::ExtensionResult extension =
            core::launch_extension(engine, config, query, block, *filtered);
        engine.transfer("d2h_extensions", extension.records_d2h_bytes);
        hits_detected += detection.total_hits;
        hits_after_filter += filtered->total_survivors;
        filtered.reset();
        for (auto& ext : extension.extensions) ext.seq += block.first_seq;
        return std::move(extension.extensions);
      }
      ++overflow_retries;
      if (retry >= config.max_bin_retries ||
          bin_capacity >= config.max_bin_capacity)
        throw core::SearchError(core::SearchErrorCode::kBinOverflowExhausted,
                                "perfbench: bin overflow retries exhausted");
      bin_capacity = bin_capacity <= config.max_bin_capacity / 2
                         ? bin_capacity * 2
                         : config.max_bin_capacity;
    }
  }

  /// Clears the per-query outputs and snapshots the engine profile.
  void reset_outputs() {
    log = SpanLog();
    extensions.assign(residency.num_blocks(), {});
    hits_detected = hits_after_filter = 0;
    overflow_retries = prefilter_seqs = prefilter_survivors = 0;
    profile_before = engine.profile();
  }

  /// The GPU half of one query over this lane's blocks (what
  /// EngineShard::run_gpu_blocks does on a fault-free run).
  void run_gpu_half(const core::Config& config, const core::QueryContext& ctx) {
    reset_outputs();
    const int root = log.open("shard", -1, &engine);
    {
      Scoped span(log, "query_upload", root, &engine);
      engine.transfer("h2d_query", ctx.device.h2d_bytes());
    }
    std::optional<core::PrefilterDevice> table;
    int threshold = 0;
    if (config.prefilter != core::PrefilterMode::kOff) {
      Scoped span(log, "prefilter", root, &engine);
      threshold = core::prefilter_threshold_for(config, ctx.evalue);
      table.emplace(ctx.pssm);
      engine.transfer("h2d_prefilter", table->h2d_bytes());
    }
    auto bin_capacity = static_cast<std::uint32_t>(config.bin_capacity);
    for (std::size_t bi = 0; bi < residency.num_blocks(); ++bi) {
      const core::BlockDevice* block = nullptr;
      {
        Scoped span(log, "residency", root, &engine);
        block = &residency.ensure(engine, bi);
      }
      std::optional<core::PrefilterResult> filter;
      if (table.has_value()) {
        Scoped span(log, "prefilter", root, &engine);
        filter.emplace(
            core::run_prefilter(engine, config, *table, *block, threshold));
        prefilter_seqs += filter->num_seqs;
        prefilter_survivors += filter->num_survivors;
      }
      if (filter.has_value() && config.prefilter == core::PrefilterMode::kAuto &&
          filter->pass_rate() >= config.prefilter_backend_switch) {
        Scoped span(log, "coarse", root, &engine);
        core::BlockOutcome outcome = core::run_block_on_coarse(
            engine, config, ctx.device, *block, overflow_retries);
        hits_detected += outcome.hits_detected;
        hits_after_filter += outcome.hits_after_filter;
        extensions[bi] = std::move(outcome.extensions);
      } else if (filter.has_value() && filter->num_survivors == 0) {
        // Nothing survived: the block contributes no extensions.
      } else {
        const core::SurvivorView view =
            filter.has_value()
                ? core::SurvivorView{filter->survivors.data(),
                                     filter->num_survivors}
                : core::SurvivorView{};
        extensions[bi] = run_fine(config, ctx.device, *block, view,
                                  bin_capacity, log, root);
      }
    }
    log.close(root, &engine);
  }

  /// The backend the query's route skips, over the same blocks: the SSV
  /// filter and the coarse kernel when the route is the fine pipeline, the
  /// unfiltered fine pipeline when the route is the filter. Results are
  /// discarded; only the spans and counts are kept.
  void run_probe(const core::Config& config, const core::QueryContext& ctx) {
    reset_outputs();
    const int root = log.open("shard", -1, &engine);
    engine.transfer("h2d_query", ctx.device.h2d_bytes());
    auto bin_capacity = static_cast<std::uint32_t>(config.bin_capacity);
    std::optional<core::PrefilterDevice> table;
    int threshold = 0;
    if (config.prefilter == core::PrefilterMode::kOff) {
      Scoped span(log, "prefilter", root, &engine);
      threshold = core::prefilter_threshold_for(config, ctx.evalue);
      table.emplace(ctx.pssm);
      engine.transfer("h2d_prefilter", table->h2d_bytes());
    }
    for (std::size_t bi = 0; bi < residency.num_blocks(); ++bi) {
      const core::BlockDevice& block = residency.ensure(engine, bi);
      if (!table.has_value()) {
        (void)run_fine(config, ctx.device, block, {}, bin_capacity, log, root);
        continue;
      }
      {
        Scoped span(log, "prefilter", root, &engine);
        const core::PrefilterResult filter =
            core::run_prefilter(engine, config, *table, block, threshold);
        prefilter_seqs += filter.num_seqs;
        prefilter_survivors += filter.num_survivors;
      }
      Scoped span(log, "coarse", root, &engine);
      (void)core::run_block_on_coarse(engine, config, ctx.device, block,
                                      overflow_retries);
    }
    log.close(root, &engine);
  }

  simt::Engine engine;
  core::BlockResidency residency;
  // Per-query outputs of run_gpu_half / run_probe.
  SpanLog log;
  std::vector<std::vector<blast::UngappedExtension>> extensions;
  simt::ProfileRegistry profile_before;
  std::uint64_t hits_detected = 0;
  std::uint64_t hits_after_filter = 0;
  std::uint64_t overflow_retries = 0;
  std::uint64_t prefilter_seqs = 0;
  std::uint64_t prefilter_survivors = 0;
};

TracedSearch::TracedSearch(const core::Config& config,
                           const repro::bio::SequenceDatabase& db)
    : config_(core::normalized_config(config)),
      db_(&db),
      pool_(std::clamp<std::size_t>(config_.shards, 1,
                                    db.split_blocks(config_.db_blocks).size()),
            "perfbench.lane") {
  const auto split = db.split_blocks(config_.db_blocks);
  const std::size_t k = pool_.size();
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t first = s * split.size() / k;
    const std::size_t last = (s + 1) * split.size() / k;
    const std::vector<std::pair<std::size_t, std::size_t>> blocks(
        split.begin() + static_cast<std::ptrdiff_t>(first),
        split.begin() + static_cast<std::ptrdiff_t>(last));
    lanes_.push_back(std::make_unique<Lane>(config_, db, blocks));
    // Probes run on engines of their own, so they cannot perturb the
    // route's engines (residency, cache state, profile).
    probe_lanes_.push_back(std::make_unique<Lane>(config_, db, blocks));
  }
}

TracedSearch::~TracedSearch() = default;

ResidencyCost TracedSearch::make_resident() {
  ResidencyCost cost;
  const std::int64_t start = now_ns();
  for (auto& lane : lanes_) {
    const double before = lane->engine.profile().total_time_ms();
    for (std::size_t bi = 0; bi < lane->residency.num_blocks(); ++bi)
      (void)lane->residency.ensure(lane->engine, bi);
    cost.h2d_modeled_ms += lane->engine.profile().total_time_ms() - before;
    cost.upload_bytes += lane->residency.uploaded_bytes();
  }
  cost.host_ms = static_cast<double>(now_ns() - start) / 1e6;
  return cost;
}

namespace {

/// Adds every layer span's self time and modeled time to `ledger`;
/// returns the self time summed (container spans are skipped).
double fold_spans(const SpanLog& log, LayerLedger& ledger) {
  double self_sum_ms = 0.0;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    const std::string name = span.name;
    if (name == "query" || name == "scatter" || name == "shard") continue;
    const double self_ms =
        static_cast<double>(log.self_ns(static_cast<int>(i))) / 1e6;
    ledger.host_ms[name] += self_ms;
    ledger.modeled_ms[name] += span.modeled_ms;
    self_sum_ms += self_ms;
  }
  return self_sum_ms;
}

/// Adds the lanes' work counts and per-kernel statistics to `ledger`.
template <class Lanes>
void fold_lane_counts(const Lanes& lanes, LayerLedger& ledger) {
  for (const auto& lane : lanes) {
    ledger.hits_detected += lane->hits_detected;
    ledger.hits_after_filter += lane->hits_after_filter;
    ledger.prefilter_seqs += lane->prefilter_seqs;
    ledger.prefilter_survivors += lane->prefilter_survivors;
    const simt::ProfileRegistry delta =
        lane->engine.profile().diff(lane->profile_before);
    for (const auto& [name, stats] : delta.kernels()) ledger.profile.add(stats);
  }
}

}  // namespace

std::vector<blast::Alignment> TracedSearch::run(
    std::span<const std::uint8_t> query, LayerLedger& ledger,
    LayerLedger* probe) {
  SpanLog log;
  const int root = log.open("query", -1, nullptr);
  std::optional<core::QueryContext> ctx;
  {
    Scoped span(log, "query_context", root);
    ctx.emplace(query, *db_, config_,
                repro::bio::SearchSpace{db_->total_residues(), db_->size()});
  }
  // Scatter over the lanes on the fleet's own kind of pool, as
  // ShardedSession does.
  const int scatter = log.open("scatter", root, nullptr);
  pool_.run_shards(lanes_.size(), [&](std::size_t s) {
    lanes_[s]->run_gpu_half(config_, *ctx);
  });
  log.close(scatter, nullptr);

  // Gather in lane (= global block) order, then the CPU half.
  std::vector<blast::Alignment> alignments;
  for (auto& lane : lanes_) {
    for (auto& block_extensions : lane->extensions) {
      Scoped span(log, "cpu_stage", root);
      core::BlockCpuResult stage =
          core::run_block_cpu_stage(*ctx, *db_, block_extensions, config_);
      ledger.gapped_extensions += stage.gapped_extensions;
      ledger.tracebacks += stage.tracebacks;
      alignments.insert(alignments.end(),
                        std::make_move_iterator(stage.alignments.begin()),
                        std::make_move_iterator(stage.alignments.end()));
    }
  }
  {
    Scoped span(log, "finalize", root);
    (void)core::run_finalize(alignments, *ctx, config_);
  }
  log.close(root, nullptr);

  // Fold the spans into the ledger. Main-thread layers are sequential; of
  // the lanes, which ran side by side, the slowest is the critical path.
  std::size_t slowest = 0;
  double device_max = 0.0;
  double device_sum = 0.0;
  auto duration_ms = [](const Span& span) {
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  };
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    const Span& lane_root = lanes_[s]->log.spans()[0];
    if (duration_ms(lane_root) > duration_ms(lanes_[slowest]->log.spans()[0]))
      slowest = s;
    device_max = std::max(device_max, lane_root.modeled_ms);
    device_sum += lane_root.modeled_ms;
  }
  ledger.shard_host_max_ms += duration_ms(lanes_[slowest]->log.spans()[0]);
  ledger.shard_device_max_ms += device_max;
  ledger.shard_device_mean_ms += device_sum / static_cast<double>(lanes_.size());

  double attributed_ms = fold_spans(log, ledger);
  // The scatter's own time is the fleet's dispatch: handing the lanes to
  // the pool, waking its workers and joining them.
  std::vector<std::pair<std::int64_t, std::int64_t>> lane_spans;
  for (const auto& lane : lanes_)
    lane_spans.emplace_back(lane->log.spans()[0].start_ns,
                            lane->log.spans()[0].end_ns);
  const Span& scatter_span = log.spans()[static_cast<std::size_t>(scatter)];
  const double dispatch_ms =
      static_cast<double>(scatter_span.end_ns - scatter_span.start_ns -
                          covered_ns(scatter_span.start_ns, scatter_span.end_ns,
                                     std::move(lane_spans))) /
      1e6;
  ledger.host_ms["dispatch"] += dispatch_ms;
  attributed_ms += dispatch_ms;
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    const double lane_ms = fold_spans(lanes_[s]->log, ledger);
    if (s == slowest) attributed_ms += lane_ms;
  }
  fold_lane_counts(lanes_, ledger);
  const double wall_ms = duration_ms(log.spans()[static_cast<std::size_t>(root)]);
  ledger.wall_ms += wall_ms;
  ledger.unattributed_ms += wall_ms - attributed_ms;
  ++ledger.queries;

  if (probe != nullptr) {
    pool_.run_shards(probe_lanes_.size(), [&](std::size_t s) {
      probe_lanes_[s]->run_probe(config_, *ctx);
    });
    for (const auto& lane : probe_lanes_) (void)fold_spans(lane->log, *probe);
    fold_lane_counts(probe_lanes_, *probe);
    ++probe->queries;
  }
  return alignments;
}

}  // namespace perfbench
