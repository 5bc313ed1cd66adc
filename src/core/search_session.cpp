#include "core/search_session.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/coarse_block.hpp"
#include "core/errors.hpp"
#include "core/prefilter.hpp"
#include "core/query_context.hpp"
#include "simt/simtcheck.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::core {

namespace detail {

/// Everything one in-flight query carries from its scatter to its report.
struct QueryRun {
  std::size_t query_index = 0;
  util::Timer wall;  ///< starts when the run is created (GPU-phase entry)
  double wall_seconds = 0.0;  ///< set when the CPU half completes

  /// Cooperative stop token, polled at every stage boundary. Empty for
  /// token-less searches and the whole batch path.
  CancellationToken cancel;

  std::optional<QueryContext> ctx;
  /// Filled in place by the gather, the CPU half and finish_search_report.
  SearchReport report;
  std::uint64_t fires_before = 0;

  /// The query on the modeled Fig. 12 timeline: preparation and
  /// finalization seconds plus one block per database block, in global
  /// block order.
  ModeledQuery modeled;
};

}  // namespace detail

using detail::QueryRun;

namespace {

/// Modeled GPU time accumulated in `registry` for one kernel name (ms).
double kernel_ms(const simt::ProfileRegistry& registry, const char* name) {
  return registry.has(name) ? registry.at(name).time_ms : 0.0;
}

// The cancellation checkpoints a successful search must poll (svccheck
// coverage contract; DESIGN.md §15/§17). Coverage scopes are per thread:
// the gathering thread (which also drives the CPU half, so it owns the
// cpu_phase checkpoints) and each shard task (which owns the GPU-block
// checkpoints) keep their own scope. At K = 1 the shard task runs on the
// gathering thread inside a nested scope, so the split is the same.
constexpr const char* kMainCheckpoints[] = {"search.entry", "query.start",
                                            "shard.gather", "finalize"};
constexpr const char* kMainPerBlockCheckpoints[] = {"cpu_phase.block"};
constexpr const char* kShardCheckpoints[] = {"shard.dispatch"};
constexpr const char* kShardPerBlockCheckpoints[] = {"gpu_phase.block",
                                                     "block_ladder.entry"};

/// Appends a kCheckpointGap hazard for every required checkpoint the scope
/// never saw polled: every name in `always`, plus every name in
/// `per_block` when `has_blocks`.
void append_checkpoint_gaps(const util::svc::CheckpointScope& scope,
                            std::span<const char* const> always,
                            std::span<const char* const> per_block,
                            bool has_blocks, simt::HazardReport& sink) {
  auto append = [&](std::span<const char* const> required) {
    for (const std::string& name : scope.missing(required)) {
      simt::HazardRecord record;
      record.kind = simt::HazardKind::kCheckpointGap;
      record.kernel = "search";
      record.detail = "cancellation checkpoint '" + name +
                      "' was never polled during this search — requests "
                      "cannot stop at that stage boundary";
      sink.add(std::move(record));
    }
  };
  append(always);
  if (has_blocks) append(per_block);
}

/// The scopes every search or batch runs inside: the injected fault
/// schedule (Config::fault_schedule) and the observability session
/// (Config::trace_path, else REPRO_TRACE). If an outer owner (the CLI, the
/// service) already started a trace session this one is passive and the
/// outer owner writes the file.
struct RequestScopes {
  explicit RequestScopes(const Config& config) {
    if (!config.fault_schedule.empty())
      fault.emplace(config.fault_schedule, config.fault_seed != 0
                                               ? config.fault_seed
                                               : util::default_fault_seed());
    const std::string trace_path =
        path_or_env(config.trace_path, "REPRO_TRACE");
    if (!trace_path.empty()) trace.emplace(trace_path);
  }
  std::optional<util::FaultScope> fault;
  std::optional<util::TraceSession> trace;
};

/// leakcheck: any device allocation made since `generation` and still live
/// now outlived its request (the DeviceResidentScope-tagged database image
/// is exempt — outliving queries is its purpose). Every shard engine runs
/// with the same simtcheck setting.
void scan_leaks(const EngineShard& shard, std::uint64_t generation,
                simt::HazardReport& sink) {
  if (shard.engine().simtcheck_enabled())
    simt::device_leak_check(sink, generation);
}

/// Completes the SearchReport of a finished query (per-kernel times,
/// pipeline walk, timings, metrics, continuous-profiler fold-in).
void finish_search_report(QueryRun& run, const Config& config,
                          simt::prof::ContinuousProfiler& profiler,
                          bool emit_modeled_trace) {
  SearchReport& report = run.report;
  report.other_seconds = run.modeled.prep_s + run.modeled.finalize_s;
  report.detection_ms = kernel_ms(report.profile, kKernelDetection);
  report.scan_ms = kernel_ms(report.profile, kKernelScan);
  report.assemble_ms = kernel_ms(report.profile, kKernelAssemble);
  report.sort_ms = kernel_ms(report.profile, kKernelSort);
  report.filter_ms = kernel_ms(report.profile, kKernelFilter);
  report.extension_ms = kernel_ms(report.profile, kKernelExtension);
  report.prefilter_ms = kernel_ms(report.profile, kKernelPrefilter);
  report.coarse_ms = kernel_ms(report.profile, kKernelCoarse);
  report.h2d_ms = kernel_ms(report.profile, "h2d_query") +
                  kernel_ms(report.profile, "h2d_block") +
                  kernel_ms(report.profile, "h2d_prefilter") +
                  kernel_ms(report.profile, "h2d_survivors");
  report.d2h_ms = kernel_ms(report.profile, "d2h_extensions") +
                  kernel_ms(report.profile, "d2h_prefilter");

  report.overlapped_total_seconds =
      walk_batch_pipeline(std::span<const ModeledQuery>(&run.modeled, 1),
                          config.cpu_threads, emit_modeled_trace);
  double serial_s = 0.0, fallback_seconds = 0.0;
  for (const ModeledBlock& block : run.modeled.blocks) {
    serial_s += block.gpu_s + block.cpu_s;
    fallback_seconds += block.fallback_s;
  }
  report.serial_total_seconds = serial_s + report.other_seconds;

  // Map into the common PhaseTimings (GPU ms -> seconds). Degraded blocks
  // fold their host-side critical-phase cost into hit detection, where the
  // work they replaced lives; so do the pre-filter and coarse-backend
  // kernels, which substitute for (parts of) hit detection.
  report.result.timings.hit_detection =
      (report.detection_ms + report.scan_ms + report.assemble_ms +
       report.sort_ms + report.filter_ms + report.prefilter_ms +
       report.coarse_ms) /
          1e3 +
      fallback_seconds;
  report.result.timings.ungapped_extension = report.extension_ms / 1e3;
  report.result.timings.gapped_extension = report.gapped_seconds;
  report.result.timings.traceback = report.traceback_seconds;
  report.result.timings.other =
      report.other_seconds + (report.h2d_ms + report.d2h_ms) / 1e3;

  report.wall_ms = run.wall_seconds * 1e3;
  report.status = report.degraded() ? "degraded" : "ok";

  report.faults_encountered =
      util::FaultInjector::instance().total_fires() - run.fires_before;
  if (util::trace_enabled() && report.faults_encountered > 0)
    util::trace_instant("faults_absorbed", "degrade",
                        {util::targ("count", report.faults_encountered)});

  // Metrics are always on (lock-free recording; see util/metrics.hpp) —
  // only the export is gated on a destination being configured.
  auto& registry = util::metrics::Registry::instance();
  registry.counter("core.searches").add(1);
  registry.counter("core.alignments").add(report.result.alignments.size());
  registry.counter("core.bin_overflow_retries")
      .add(report.bin_overflow_retries);
  registry.counter("core.cache_off_retries").add(report.cache_off_retries);
  registry.counter("core.degraded_blocks").add(report.degraded_blocks);
  registry.counter("core.faults_absorbed").add(report.faults_encountered);
  registry.counter("core.prefilter_sequences").add(report.prefilter_sequences);
  registry.counter("core.prefilter_survivors").add(report.prefilter_survivors);
  registry.counter("core.prefilter_degraded_blocks")
      .add(report.prefilter_degraded_blocks);
  registry.histogram("core.search_wall_seconds").observe(run.wall_seconds);

  // Continuous profiler: fold this query's per-kernel delta into the
  // session-lifetime aggregate (simtprof; DESIGN.md §16). Collection is
  // unconditional — it reads counters the engine already measured, so it
  // cannot perturb results — and export stays gated on a path.
  profiler.record_search(report.profile, report.wall_ms);
}

}  // namespace

SearchSession::SearchSession(Config config, const bio::SequenceDatabase& db)
    : config_(normalized_config(std::move(config))), db_(&db) {
  check_search_limits({}, db);
  const auto split = db.split_blocks(config_.db_blocks);
  const std::size_t num_blocks = split.size();
  // At least one shard, even over an empty database (it owns no blocks).
  const std::size_t k = std::max<std::size_t>(
      1, std::min<std::size_t>(config_.shards, num_blocks));
  config_.shards = k;

  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t first = s * num_blocks / k;
    const std::size_t last = (s + 1) * num_blocks / k;
    shards_.push_back(std::make_unique<EngineShard>(
        config_, db, s, first,
        std::vector<std::pair<std::size_t, std::size_t>>(
            split.begin() + static_cast<std::ptrdiff_t>(first),
            split.begin() + static_cast<std::ptrdiff_t>(last))));
  }

  if (config_.svccheck || util::svc::svccheck_env_enabled())
    util::svc::set_svccheck_enabled(true);
  if (k > 1) pool_ = std::make_unique<util::ThreadPool>(k, "shard");
  // Everything allocated from here on belongs to this session for
  // leakcheck purposes; see leak_check().
  session_generation_ = simt::begin_device_generation();
  profiler_.set_device(shards_[0]->engine().spec());
}

std::uint64_t SearchSession::resident_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->resident_bytes();
  return total;
}

std::uint64_t SearchSession::block_uploads() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->block_uploads();
  return total;
}

std::uint64_t SearchSession::db_device_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->db_device_bytes();
  return total;
}

std::uint64_t SearchSession::leak_check(simt::HazardReport& sink) const {
  return simt::device_leak_check(sink, session_generation_);
}

void SearchSession::export_metrics() const {
  const std::string metrics_path =
      path_or_env(config_.metrics_path, "REPRO_METRICS");
  if (metrics_path.empty()) return;
  try {
    util::metrics::Registry::instance().write_file(metrics_path);
  } catch (const std::invalid_argument& e) {
    // The util layer cannot name SearchError (layering); translate here so
    // a typo'd --metrics path surfaces through the core error taxonomy.
    throw SearchError(SearchErrorCode::kInvalidArgument, e.what());
  }
}

void SearchSession::export_profile() const {
  const std::string profile_path =
      path_or_env(config_.profile_path, "REPRO_PROFILE");
  if (profile_path.empty()) return;
  try {
    profiler_.write_file(profile_path);
  } catch (const std::invalid_argument& e) {
    throw SearchError(SearchErrorCode::kInvalidArgument, e.what());
  }
}

void SearchSession::run_query(std::span<const std::uint8_t> query,
                              QueryRun& run, std::size_t query_index) {
  run.query_index = query_index;
  run.fires_before = util::FaultInjector::instance().total_fires();
  run.cancel.throw_if_stopped("query.start");

  // --- stage 1: query preparation, once for the whole fleet --------------
  // The explicit aggregate search space makes the calculator (and with it
  // every cutoff, e-value, and the pre-filter threshold) identical on
  // every shard.
  {
    util::Timer prep_timer;
    util::TraceSpan prep_span("query_prep", "core");
    run.ctx.emplace(query, *db_, config_,
                    bio::SearchSpace{db_->total_residues(), db_->size()});
    prep_span.end();
    run.modeled.prep_s = prep_timer.seconds();
  }

  run.report.prefilter_mode = config_.prefilter;
  if (config_.prefilter != PrefilterMode::kOff)
    run.report.prefilter_threshold =
        prefilter_threshold_for(config_, run.ctx->evalue);

  // --- scatter: the GPU half of the query on every shard ------------------
  // Only the device-side half fans out across shards. The CPU half (gapped
  // extension, traceback) runs on the gathering thread below, once the
  // shard pool is idle, each block on its own cpu_threads workers: the host
  // CPU is one shared resource however many modeled GPUs the fleet has,
  // and running both halves at once would oversubscribe it and inflate the
  // per-task costs that feed the pipeline model (DESIGN.md §17).
  const std::size_t k = shards_.size();
  std::vector<std::optional<ShardGpuResult>> gathered(k);

  auto shard_task = [&](std::size_t s) {
    // Shard-side svccheck coverage scope: this task owns the GPU
    // block-granularity cancellation checkpoints for its shard.
    util::svc::CheckpointScope shard_scope;
    run.cancel.throw_if_stopped("shard.dispatch");
    EngineShard& shard = *shards_[s];

    util::TraceSpan shard_span;
    if (util::trace_enabled()) {
      shard_span.open("search.shard " + std::to_string(s), "core");
      shard_span.arg("shard", static_cast<std::uint64_t>(s));
      shard_span.arg("first_block",
                     static_cast<std::uint64_t>(shard.first_block()));
      shard_span.arg("blocks", static_cast<std::uint64_t>(shard.num_blocks()));
    }

    ShardGpuResult out = shard.run_gpu_blocks(*run.ctx, run.cancel);

    if (util::svc::svccheck_enabled())
      append_checkpoint_gaps(shard_scope, kShardCheckpoints,
                             kShardPerBlockCheckpoints, shard.num_blocks() > 0,
                             out.hazards);

    // Publish under the gather lock: the slot indices are disjoint, but
    // the named lock keeps the scatter/gather handoff visible to the
    // svccheck lock-order analyzer (and to TSan).
    std::lock_guard gather_lock(gather_mu_);
    gathered[s] = std::move(out);
  };

  // A one-shard fleet runs its shard on the calling thread. With a fault
  // schedule installed the scatter is serialized too: the global
  // launch/fault-point ordering then matches the K=1 path exactly, so
  // launch-indexed schedules hit the same block at every fleet size (a
  // deterministic-degradation requirement; DESIGN.md §17). Fault-free
  // queries on a K > 1 fleet scatter across the fleet pool.
  if (k == 1 || util::FaultInjector::instance().enabled()) {
    for (std::size_t s = 0; s < k; ++s) shard_task(s);
  } else {
    pool_->run_shards(k, shard_task, run.cancel.root_flag());
  }

  // --- gather, in shard order = global block order -------------------------
  run.cancel.throw_if_stopped("shard.gather");
  {
    std::lock_guard gather_lock(gather_mu_);
    for (std::size_t s = 0; s < k; ++s)
      if (!gathered[s].has_value())
        throw SearchError(SearchErrorCode::kWorkerFailed,
                          "shard " + std::to_string(s) +
                              " produced no result after scatter");
  }

  // One pass over every shard's ladder records, in shard (= global block)
  // order: each record is folded into the report and its shard's summary,
  // then its block's CPU half runs (stage 4: gapped extension +
  // traceback). Driven from the gathering thread, so the per-block loop and
  // summation order are the same at every K.
  SearchReport& report = run.report;
  auto& counters = report.result.counters;
  for (std::size_t s = 0; s < k; ++s) {
    ShardGpuResult& gpu = *gathered[s];
    const std::size_t first_block = shards_[s]->first_block();
    for (const auto& [name, stats] : gpu.profile_delta.kernels())
      report.profile.add(stats);
    report.hazards.merge(gpu.hazards);

    ShardSummary& summary = report.shards.emplace_back();
    summary.shard = static_cast<std::uint32_t>(s);
    summary.first_block = static_cast<std::uint32_t>(first_block);
    summary.num_blocks = static_cast<std::uint32_t>(gpu.blocks.size());
    summary.kernel_ms = gpu.profile_delta.total_time_ms();

    for (std::size_t bi = 0; bi < gpu.blocks.size(); ++bi) {
      const BlockLadderResult& block = gpu.blocks[bi];
      summary.backends.push_back(block.backend);
      summary.retry_attempts += block.failed_attempts;
      summary.degraded_blocks += block.degraded ? 1 : 0;
      summary.cache_off_retries += block.cache_off_retry ? 1 : 0;
      summary.bin_overflow_retries += block.bin_overflow_retries;
      summary.prefilter_degraded_blocks += block.prefilter_degraded ? 1 : 0;
      report.retry_counts.push_back(block.failed_attempts);
      report.block_backends.push_back(block.backend);
      report.prefilter_sequences += block.prefilter_seqs;
      report.prefilter_survivors += block.prefilter_survivors;
      counters.hits_detected += block.outcome.hits_detected;
      counters.hits_after_filter += block.outcome.hits_after_filter;
      counters.ungapped_extensions += block.outcome.ungapped_extensions;
      counters.words_scanned += block.words_scanned;
      if (util::trace_enabled()) {
        util::trace_counter("hits_detected_total",
                            static_cast<double>(counters.hits_detected));
        util::trace_counter("hits_after_filter_total",
                            static_cast<double>(counters.hits_after_filter));
      }

      run.cancel.throw_if_stopped("cpu_phase.block");
      const std::size_t global_bi = first_block + bi;
      util::TraceSpan gapped_span;
      if (util::trace_enabled()) {
        gapped_span.open("gapped_stage", "cpu");
        gapped_span.arg("block", static_cast<std::uint64_t>(global_bi));
        gapped_span.arg("shard", static_cast<std::uint64_t>(s));
      }
      BlockCpuResult stage = run_block_cpu_stage(
          *run.ctx, *db_, block.outcome.extensions, config_);
      if (gapped_span.active()) {
        gapped_span.arg(
            "gapped_tasks",
            static_cast<std::uint64_t>(stage.gapped_schedule.size()));
        gapped_span.arg(
            "traceback_tasks",
            static_cast<std::uint64_t>(stage.traceback_schedule.size()));
      }
      report.gapped_seconds += stage.gapped_makespan_seconds;
      report.traceback_seconds += stage.traceback_makespan_seconds;
      counters.gapped_extensions += stage.gapped_extensions;
      counters.tracebacks += stage.tracebacks;

      const double fallback_s = block.outcome.cpu_fallback_seconds;
      run.modeled.blocks.push_back(ModeledBlock{
          .query_index = run.query_index,
          .block_index = global_bi,
          .gpu_s = block.gpu_ms / 1e3,
          .cpu_s = stage.gapped_makespan_seconds +
                   stage.traceback_makespan_seconds + fallback_s,
          .fallback_s = fallback_s,
          .gapped_schedule = std::move(stage.gapped_schedule),
          .traceback_schedule = std::move(stage.traceback_schedule)});

      report.result.alignments.insert(
          report.result.alignments.end(),
          std::make_move_iterator(stage.alignments.begin()),
          std::make_move_iterator(stage.alignments.end()));
    }
    report.degraded_blocks += summary.degraded_blocks;
    report.cache_off_retries += summary.cache_off_retries;
    report.bin_overflow_retries += summary.bin_overflow_retries;
    report.prefilter_degraded_blocks += summary.prefilter_degraded_blocks;
  }

  // --- stage 5: finalization over the merged fleet-wide alignments --------
  run.cancel.throw_if_stopped("finalize");
  run.modeled.finalize_s =
      run_finalize(report.result.alignments, *run.ctx, config_);
  run.wall_seconds = run.wall.seconds();
}

SearchReport SearchSession::search(std::span<const std::uint8_t> query,
                                   const CancellationToken& cancel) {
  check_search_limits(query, *db_);
  // svccheck coverage scope: collects every checkpoint this thread polls
  // during the search; gaps against the required stage-boundary set are
  // reported below. The leak floor is this query's own generation, so the
  // resident database and earlier queries' (already-scanned) state never
  // alias into this query's scan.
  util::svc::CheckpointScope checkpoints;
  const std::uint64_t query_generation = simt::begin_device_generation();
  cancel.throw_if_stopped("search.entry");
  const RequestScopes scopes(config_);

  SearchReport report;
  {
    QueryRun run;
    run.cancel = cancel;
    util::TraceSpan search_span("cublastp.search", "core");
    if (search_span.active()) {
      search_span.arg("query_length", static_cast<std::uint64_t>(query.size()));
      search_span.arg("db_sequences", static_cast<std::uint64_t>(db_->size()));
      search_span.arg("db_blocks",
                      static_cast<std::uint64_t>(config_.db_blocks));
      search_span.arg("engine_workers", config_.engine_workers);
      search_span.arg("shards", static_cast<std::uint64_t>(shards_.size()));
    }

    run_query(query, run, 0);
    finish_search_report(run, config_, profiler_,
                         /*emit_modeled_trace=*/true);

    if (search_span.active()) {
      search_span.arg(
          "alignments",
          static_cast<std::uint64_t>(run.report.result.alignments.size()));
      search_span.arg("degraded_blocks", run.report.degraded_blocks);
      search_span.arg("faults_absorbed", run.report.faults_encountered);
    }
    search_span.end();
    report = std::move(run.report);
  }  // QueryRun dies here: its QueryContext device buffers must all be gone
     // before the leak scan below, or they would read as leaks.

  scan_leaks(*shards_[0], query_generation, report.hazards);
  // svccheck: assert the stage-boundary checkpoint coverage contract.
  if (util::svc::svccheck_enabled())
    append_checkpoint_gaps(checkpoints, kMainCheckpoints,
                           kMainPerBlockCheckpoints,
                           shards_[0]->num_blocks() > 0, report.hazards);

  export_metrics();
  export_profile();
  return report;
}

BatchReport SearchSession::search_batch(
    std::span<const std::span<const std::uint8_t>> queries) {
  BatchReport batch;
  batch.shards = shards_.size();
  if (queries.empty()) return batch;
  // Fail fast on any invalid query before any work is scheduled.
  for (const auto& query : queries) check_search_limits(query, *db_);
  // Leakcheck floor for the whole batch (scanned once, after every run's
  // device buffers are destroyed).
  const std::uint64_t batch_generation = simt::begin_device_generation();
  // One fault scope around the whole batch: the schedule's fire counters
  // run across all queries, like one long-lived service would see.
  const RequestScopes scopes(config_);

  const std::uint64_t uploads_before = block_uploads();
  const std::uint64_t bytes_before = resident_bytes();

  util::Timer batch_timer;
  util::TraceSpan batch_span("cublastp.search_batch", "core");
  if (batch_span.active()) {
    batch_span.arg("queries", static_cast<std::uint64_t>(queries.size()));
    batch_span.arg("db_sequences", static_cast<std::uint64_t>(db_->size()));
    batch_span.arg("db_blocks", static_cast<std::uint64_t>(config_.db_blocks));
    batch_span.arg("engine_workers", config_.engine_workers);
    batch_span.arg("shards", static_cast<std::uint64_t>(shards_.size()));
  }

  // Queries run in input order, each scattered across the whole fleet (the
  // fleet's parallelism is across shards, not across queries, so per-query
  // reports stay bit-identical to sequential search() calls). The CPU half
  // runs on this thread once the shard pool is idle; the cross-query
  // overlap of paper Fig. 12 is modeled below, not executed.
  std::vector<std::vector<ModeledQuery>> shard_modeled(
      shards_.size(), std::vector<ModeledQuery>(queries.size()));
  batch.reports.reserve(queries.size());
  batch.per_query_wall_seconds.reserve(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    // Each run (and with it the query's device buffers) dies at the end of
    // its iteration, before the batch leak scan below.
    QueryRun run;
    util::TraceSpan query_span;
    if (util::trace_enabled()) {
      query_span.open("batch.query " + std::to_string(qi), "core");
      query_span.arg("query_length",
                     static_cast<std::uint64_t>(queries[qi].size()));
    }
    run_query(queries[qi], run, qi);
    finish_search_report(run, config_, profiler_,
                         /*emit_modeled_trace=*/false);

    // Shards own contiguous global block ranges, so each shard's modeled
    // blocks are the next contiguous run of the query's block list.
    auto next = run.modeled.blocks.begin();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ModeledQuery& mq = shard_modeled[s][qi];
      mq.prep_s = run.modeled.prep_s;
      mq.finalize_s = run.modeled.finalize_s;
      const auto owned = static_cast<std::ptrdiff_t>(shards_[s]->num_blocks());
      mq.blocks.assign(std::make_move_iterator(next),
                       std::make_move_iterator(next + owned));
      next += owned;
    }

    batch.per_query_wall_seconds.push_back(run.wall_seconds);
    batch.prefilter_sequences += run.report.prefilter_sequences;
    batch.prefilter_survivors += run.report.prefilter_survivors;
    batch.reports.push_back(std::move(run.report));
  }
  // Findings land on the first report: per-query attribution is not kept
  // for the batch-wide scan.
  scan_leaks(*shards_[0], batch_generation, batch.reports[0].hazards);

  batch.batch_wall_seconds = batch_timer.seconds();
  batch.h2d_block_uploads = block_uploads() - uploads_before;
  batch.h2d_block_bytes = resident_bytes() - bytes_before;
  batch.db_device_bytes = db_device_bytes();

  // Modeled fleet makespan: every shard walks its own cross-query pipeline
  // (its GPU chain + its CPU resource) concurrently; the batch finishes
  // when the slowest shard does.
  for (std::size_t s = 0; s < shards_.size(); ++s)
    batch.modeled_batch_seconds =
        std::max(batch.modeled_batch_seconds,
                 walk_batch_pipeline(shard_modeled[s], config_.cpu_threads));

  // What N one-shot single-engine sessions would model: each query runs its
  // own Fig. 12 walk (already in overlapped_total_seconds) and pays the
  // full database upload on one link, priced by the same PCIe model, minus
  // whatever upload time its profile already contains.
  double full_upload_ms = 0.0;
  const simt::Engine& cost_engine = shards_[0]->engine();
  for (const auto& shard : shards_)
    for (std::size_t bi = 0; bi < shard->num_blocks(); ++bi)
      full_upload_ms += cost_engine.cost_model().transfer_ms(
          cost_engine.spec(), shard->block_bytes(bi));
  for (const auto& report : batch.reports)
    batch.modeled_sequential_seconds +=
        report.overlapped_total_seconds +
        (full_upload_ms - kernel_ms(report.profile, "h2d_block")) / 1e3;

  if (batch_span.active()) {
    batch_span.arg("h2d_block_bytes", batch.h2d_block_bytes);
    batch_span.arg("modeled_batch_seconds", batch.modeled_batch_seconds);
    batch_span.arg("modeled_sequential_seconds",
                   batch.modeled_sequential_seconds);
  }
  batch_span.end();

  auto& registry = util::metrics::Registry::instance();
  registry.counter("core.batches").add(1);
  registry.counter("core.batch_queries").add(queries.size());
  registry.histogram("core.batch_wall_seconds")
      .observe(batch.batch_wall_seconds);
  export_metrics();
  export_profile();
  return batch;
}

BatchReport SearchSession::search_all_vs_all(std::size_t limit) {
  std::size_t count = db_->size();
  if (limit != 0 && limit < count) count = limit;
  std::vector<std::span<const std::uint8_t>> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) queries.push_back(db_->residues(i));
  return search_batch(queries);
}

}  // namespace repro::core
