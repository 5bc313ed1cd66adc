#include "baselines/coarse_gpu.hpp"

#include <string>
#include <vector>

#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/results.hpp"
#include "blast/wordlookup.hpp"
#include "core/config.hpp"
#include "core/device_data.hpp"
#include "core/pipeline.hpp"
#include "simt/engine.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace repro::baselines {

namespace {

/// One search of either reproduction: `sort_by_length` is CUDA-BLASTP's
/// load-balancing trick, `dynamic_queue` GPU-BLASTP's runtime work queue.
CoarseReport coarse_search(std::span<const std::uint8_t> query,
                           const bio::SequenceDatabase& db,
                           const CoarseConfig& config, bool sort_by_length,
                           bool dynamic_queue) {
  util::TraceSpan search_span(
      dynamic_queue ? "gpu_blastp.search" : "cuda_blastp.search", "baseline");
  if (search_span.active()) {
    search_span.arg("query_length", static_cast<std::uint64_t>(query.size()));
    search_span.arg("db_sequences", static_cast<std::uint64_t>(db.size()));
  }
  CoarseReport report;
  simt::Engine engine;
  // These baselines predate Kepler's read-only cache.
  engine.set_readonly_cache_enabled(false);
  if (config.simtcheck) engine.set_simtcheck_enabled(true);

  util::Timer other_timer;
  // CUDA-BLASTP scans a copy sorted by descending length; `to_original`
  // maps its extensions back to original ids.
  bio::SequenceDatabase sorted;
  std::vector<std::uint32_t> to_original;
  if (sort_by_length) sorted = db.sorted_by_length_desc(to_original);
  const bio::SequenceDatabase& scanned = sort_by_length ? sorted : db;
  util::TraceSpan prep_span("query_prep", "baseline");
  blast::WordLookup lookup(query, bio::Blosum62::instance(), config.params);
  bio::Pssm pssm(query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), query.size(),
                               db.total_residues(), db.size());
  core::QueryDevice device_query(query, lookup, pssm);
  prep_span.end();
  report.other_seconds += other_timer.seconds();
  engine.transfer("h2d_query", device_query.h2d_bytes());

  core::CoarseBlockConfig kernel_config;
  kernel_config.params = config.params;
  kernel_config.grid_blocks = config.grid_blocks;
  kernel_config.block_threads = config.block_threads;
  kernel_config.dynamic_queue = dynamic_queue;
  core::BlockResidency residency(scanned,
                                 scanned.split_blocks(config.db_blocks));
  std::vector<blast::UngappedExtension> extensions;
  for (std::size_t bi = 0; bi < residency.num_blocks(); ++bi) {
    util::TraceSpan block_span;
    if (util::trace_enabled()) {
      const auto [begin, end] = residency.range(bi);
      block_span.open("db_block " + std::to_string(bi), "baseline");
      block_span.arg("first_seq", static_cast<std::uint64_t>(begin));
      block_span.arg("end_seq", static_cast<std::uint64_t>(end));
    }
    core::CoarseBlockOutput out = core::run_coarse_block(
        engine, kernel_config, device_query, residency.ensure(engine, bi),
        config.block_output_capacity, core::Config{}.max_bin_retries,
        report.output_overflow_retries);
    report.result.counters.hits_detected += out.hits_detected;
    // Every two-hit trigger runs an inline extension: the extensions run
    // are both the filter survivors and the ungapped extensions, as on the
    // FSA-BLAST path and the core coarse route.
    report.result.counters.hits_after_filter += out.extensions_run;
    report.result.counters.ungapped_extensions += out.extensions_run;
    for (auto& ext : out.extensions) {
      if (sort_by_length) ext.seq = to_original[ext.seq];
      extensions.push_back(ext);
    }
  }

  const auto word_length = static_cast<std::size_t>(config.params.word_length);
  for (std::size_t s = 0; s < db.size(); ++s)
    if (db.length(s) >= word_length)
      report.result.counters.words_scanned += db.length(s) - word_length + 1;

  util::TraceSpan gapped_span("gapped_stage", "baseline");
  auto stage = blast::process_gapped_stage(pssm, db, extensions,
                                           config.params, evalue);
  gapped_span.end();
  report.gapped_seconds = stage.gapped_seconds;
  report.traceback_seconds = stage.traceback_seconds;
  report.result.counters.gapped_extensions = stage.gapped_extensions;
  report.result.counters.tracebacks = stage.tracebacks;

  {
    util::TraceSpan finalize_span("finalize", "baseline");
    util::ScopedAccumulator finalize_time(report.other_seconds);
    report.result.alignments = std::move(stage.alignments);
    blast::finalize_results(report.result.alignments, config.params, evalue);
  }

  // The diff against an empty registry drops no-work rows (an empty D2H
  // copy), matching what the session reports per query.
  report.profile = engine.profile().diff(simt::ProfileRegistry{});
  report.hazards = engine.hazards();
  report.kernel_ms = report.profile.has(kCoarseKernel)
                         ? report.profile.at(kCoarseKernel).time_ms
                         : 0.0;
  const auto transfer_ms = [&](const char* name) {
    return report.profile.has(name) ? report.profile.at(name).time_ms : 0.0;
  };
  report.h2d_ms = transfer_ms("h2d_query") + transfer_ms("h2d_block");
  report.d2h_ms = transfer_ms("d2h_extensions");
  report.total_seconds = (report.kernel_ms + report.h2d_ms + report.d2h_ms) /
                             1e3 +
                         report.gapped_seconds + report.traceback_seconds +
                         report.other_seconds;

  report.result.timings.hit_detection = report.kernel_ms / 1e3;
  report.result.timings.gapped_extension = report.gapped_seconds;
  report.result.timings.traceback = report.traceback_seconds;
  report.result.timings.other =
      report.other_seconds + (report.h2d_ms + report.d2h_ms) / 1e3;
  return report;
}

}  // namespace

CoarseReport cuda_blastp_search(std::span<const std::uint8_t> query,
                                const bio::SequenceDatabase& db,
                                const CoarseConfig& config) {
  return coarse_search(query, db, config, /*sort_by_length=*/true,
                       /*dynamic_queue=*/false);
}

CoarseReport gpu_blastp_search(std::span<const std::uint8_t> query,
                               const bio::SequenceDatabase& db,
                               const CoarseConfig& config) {
  return coarse_search(query, db, config, /*sort_by_length=*/false,
                       /*dynamic_queue=*/true);
}

}  // namespace repro::baselines
