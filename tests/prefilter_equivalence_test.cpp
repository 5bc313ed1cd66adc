// PrefilterEquivalence: the SSV pre-filter (DESIGN.md §13) must be
// lossless — searches with --prefilter=on/auto are bit-identical to
// unfiltered searches (same alignments, same gapped/traceback counters)
// across every extension strategy, engine worker count, and the
// batch/sequential split; under injected faults at the filter's fault
// point the ladder degrades to the unfiltered path without dropping
// results; and on an adversarial database every sequence that produces a
// qualifying ungapped extension survives the calibrated threshold (the
// upper-bound argument, checked directly against the CPU reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "bio/generator.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/wordlookup.hpp"
#include "core/coarse_block.hpp"
#include "core/cublastp.hpp"
#include "core/device_data.hpp"
#include "core/pipeline.hpp"
#include "core/prefilter.hpp"
#include "core/search_session.hpp"

namespace repro {
namespace {

struct Workload {
  std::vector<std::vector<std::uint8_t>> queries;
  bio::SequenceDatabase db;
};

Workload make_workload(std::size_t num_queries = 2,
                       std::size_t num_seqs = 70,
                       double homolog_fraction = 0.1) {
  Workload w;
  for (std::size_t i = 0; i < num_queries; ++i)
    w.queries.push_back(
        bio::make_benchmark_query(101 + 48 * i, 700 + i).residues);
  auto profile = bio::DatabaseProfile::swissprot_like(num_seqs);
  profile.homolog_fraction = homolog_fraction;
  bio::DatabaseGenerator gen(profile, 77);
  w.db = gen.generate(w.queries.front());
  return w;
}

core::Config base_config(core::PrefilterMode mode, int engine_workers = 1) {
  core::Config config;
  config.db_blocks = 3;
  config.detection_blocks = 2;
  config.engine_workers = engine_workers;
  config.prefilter = mode;
  return config;
}

/// The losslessness contract: identical alignments and identical
/// downstream (gapped/traceback) work. Upstream counters (hits_detected,
/// words_scanned) legitimately shrink when the filter removes sequences.
void expect_equivalent(const core::SearchReport& unfiltered,
                       const core::SearchReport& filtered) {
  EXPECT_EQ(unfiltered.result.alignments, filtered.result.alignments);
  EXPECT_EQ(unfiltered.result.counters.gapped_extensions,
            filtered.result.counters.gapped_extensions);
  EXPECT_EQ(unfiltered.result.counters.tracebacks,
            filtered.result.counters.tracebacks);
}

class PrefilterEquivalence
    : public ::testing::TestWithParam<std::tuple<core::PrefilterMode, int>> {};

TEST_P(PrefilterEquivalence, SequentialIdenticalToUnfiltered) {
  const auto [mode, workers] = GetParam();
  const auto w = make_workload();
  for (const auto strategy :
       {core::ExtensionStrategy::kWindow, core::ExtensionStrategy::kDiagonal,
        core::ExtensionStrategy::kHit}) {
    SCOPED_TRACE("strategy " + std::to_string(static_cast<int>(strategy)));
    auto off = base_config(core::PrefilterMode::kOff, workers);
    off.strategy = strategy;
    auto on = base_config(mode, workers);
    on.strategy = strategy;
    for (const auto& q : w.queries) {
      const auto unfiltered = core::CuBlastp(off).search(q, w.db);
      const auto filtered = core::CuBlastp(on).search(q, w.db);
      expect_equivalent(unfiltered, filtered);
      EXPECT_EQ(filtered.prefilter_mode, mode);
      EXPECT_GT(filtered.prefilter_threshold, 0);
      EXPECT_EQ(filtered.prefilter_sequences, w.db.size());
      EXPECT_EQ(filtered.block_backends.size(), on.db_blocks);
      EXPECT_GE(filtered.prefilter_pass_rate(), 0.0);
      EXPECT_LE(filtered.prefilter_pass_rate(), 1.0);
      EXPECT_EQ(filtered.prefilter_degraded_blocks, 0u);
      // Unfiltered reports stay pre-filter-silent: no filter kernel, no
      // filter transfers, all-kFine backends.
      EXPECT_EQ(unfiltered.prefilter_sequences, 0u);
      EXPECT_FALSE(unfiltered.profile.has(core::kKernelPrefilter));
      for (const auto backend : unfiltered.block_backends)
        EXPECT_EQ(backend, core::BlockBackend::kFine);
    }
  }
}

TEST_P(PrefilterEquivalence, BatchIdenticalToUnfilteredBatch) {
  const auto [mode, workers] = GetParam();
  const auto w = make_workload();
  std::vector<std::span<const std::uint8_t>> spans;
  for (const auto& q : w.queries) spans.emplace_back(q);

  core::SearchSession off_session(
      base_config(core::PrefilterMode::kOff, workers), w.db);
  const auto off = off_session.search_batch(spans);
  core::SearchSession on_session(base_config(mode, workers), w.db);
  const auto on = on_session.search_batch(spans);

  ASSERT_EQ(off.reports.size(), on.reports.size());
  for (std::size_t i = 0; i < off.reports.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expect_equivalent(off.reports[i], on.reports[i]);
  }
  EXPECT_EQ(on.prefilter_sequences, w.db.size() * w.queries.size());
  EXPECT_EQ(off.prefilter_sequences, 0u);
  EXPECT_GE(on.prefilter_pass_rate(), 0.0);
  EXPECT_LE(on.prefilter_pass_rate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWorkers, PrefilterEquivalence,
    ::testing::Combine(::testing::Values(core::PrefilterMode::kOn,
                                         core::PrefilterMode::kAuto),
                       ::testing::Values(1, 4)));

TEST(PrefilterFaults, FilterFaultsDegradeToUnfilteredNotToLoss) {
  // Deterministic faults at the filter's own fault point: every filter
  // launch fails, every block is served unfiltered on the same rung, and
  // the results still match a fault-free unfiltered run.
  const auto w = make_workload(1);
  const auto unfiltered =
      core::CuBlastp(base_config(core::PrefilterMode::kOff))
          .search(w.queries[0], w.db);

  auto config = base_config(core::PrefilterMode::kOn);
  config.fault_schedule = "core.prefilter:prob=1.0";
  config.fault_seed = 99;
  const auto filtered = core::CuBlastp(config).search(w.queries[0], w.db);
  expect_equivalent(unfiltered, filtered);
  EXPECT_EQ(filtered.prefilter_degraded_blocks, config.db_blocks);
  EXPECT_EQ(filtered.prefilter_survivors, 0u);
  EXPECT_EQ(filtered.degraded_blocks, 0u);  // same rung, not the CPU rung
  for (const auto backend : filtered.block_backends)
    EXPECT_EQ(backend, core::BlockBackend::kFine);
}

TEST(PrefilterFaults, MixedFaultScheduleStaysLossless) {
  // Probabilistic faults across the filter point and the ladder-protected
  // device points: whatever mix of filtered, degraded-filter, cache-off,
  // and CPU-fallback paths each block takes, alignments stay identical.
  const auto w = make_workload();
  for (const auto mode :
       {core::PrefilterMode::kOn, core::PrefilterMode::kAuto}) {
    SCOPED_TRACE(core::prefilter_mode_name(mode));
    auto config = base_config(mode);
    config.fault_schedule =
        "core.prefilter:prob=0.4;core.bin_overflow:prob=0.25;"
        "simt.launch:prob=0.05";
    config.fault_seed = 4321;
    for (const auto& q : w.queries) {
      const auto unfiltered =
          core::CuBlastp(base_config(core::PrefilterMode::kOff))
              .search(q, w.db);
      const auto filtered = core::CuBlastp(config).search(q, w.db);
      EXPECT_EQ(unfiltered.result.alignments, filtered.result.alignments);
    }
  }
}

TEST(PrefilterLosslessness, EverySeedingSequenceSurvivesCalibratedThreshold) {
  // The direct upper-bound argument on an adversarial database (dense
  // homology plants many near-threshold sequences): every sequence the CPU
  // reference emits a qualifying ungapped extension for must be in the
  // filter's survivor list — the filter may only remove sequences that
  // provably cannot seed.
  const auto w = make_workload(1, 90, 0.5);
  const auto& query = w.queries[0];
  core::Config config;

  blast::SearchParams params = config.params;
  blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
  bio::Pssm pssm(query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), query.size(),
                               w.db.total_residues(), w.db.size());
  const int threshold = core::prefilter_threshold_for(config, evalue);
  EXPECT_GT(threshold, 0);
  EXPECT_LE(threshold, params.ungapped_cutoff);

  const auto reference = core::run_block_on_cpu(
      lookup, pssm, w.db, 0, w.db.size(), params);
  ASSERT_FALSE(reference.extensions.empty())
      << "adversarial workload produced no qualifying extensions";

  core::PrefilterDevice table(pssm);
  core::BlockDevice block(w.db, 0, w.db.size());
  simt::Engine engine;
  const auto filtered =
      core::run_prefilter(engine, config, table, block, threshold);
  EXPECT_EQ(filtered.num_seqs, w.db.size());

  std::unordered_set<std::uint32_t> survivors(
      filtered.survivors.data(),
      filtered.survivors.data() + filtered.num_survivors);
  for (const auto& ext : reference.extensions)
    EXPECT_TRUE(survivors.count(ext.seq))
        << "sequence " << ext.seq << " (ungapped score " << ext.score
        << ") was filtered out at threshold " << threshold;
}

TEST(PrefilterLosslessness, OverriddenThresholdIsHonoredAndDocumentedLossy) {
  // A user override above the calibrated value voids the guarantee — pin
  // that the override is actually applied (an absurd threshold filters
  // everything) so the config knob stays wired end to end.
  const auto w = make_workload(1);
  auto config = base_config(core::PrefilterMode::kOn);
  config.prefilter_threshold = 1 << 20;
  const auto report = core::CuBlastp(config).search(w.queries[0], w.db);
  EXPECT_EQ(report.prefilter_threshold, 1 << 20);
  EXPECT_EQ(report.prefilter_survivors, 0u);
  EXPECT_DOUBLE_EQ(report.prefilter_pass_rate(), 0.0);
  EXPECT_TRUE(report.result.alignments.empty());
}

TEST(PrefilterReport, JsonCarriesSchemaV3AndPrefilterSection) {
  const auto w = make_workload(1);
  const auto report = core::CuBlastp(base_config(core::PrefilterMode::kAuto))
                          .search(w.queries[0], w.db);
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"cublastp.search_report.v4\""),
            std::string::npos);
  EXPECT_NE(json.find("\"prefilter\":{"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"auto\""), std::string::npos);
  EXPECT_NE(json.find("\"pass_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"block_backends\":["), std::string::npos);
  EXPECT_NE(json.find("\"ssv_prefilter\":"), std::string::npos);
  // Each block's backend made it into the JSON array.
  std::size_t backends = 0;
  for (const char* name : {"\"fine\"", "\"fine_filtered\"", "\"coarse\"",
                           "\"cpu\""}) {
    std::size_t pos = json.find("\"block_backends\":[");
    const std::size_t end = json.find(']', pos);
    while ((pos = json.find(name, pos)) != std::string::npos && pos < end) {
      ++backends;
      pos += 1;
    }
  }
  EXPECT_EQ(backends, report.block_backends.size());
}

TEST(PrefilterReport, AutoModeRoutesDenseBlocksToCoarseBackend) {
  // With a dense-homology database and a permissive switch threshold, auto
  // mode must actually route blocks to the coarse backend — and the result
  // still matches the unfiltered fine pipeline.
  const auto w = make_workload(1, 60, 0.6);
  auto config = base_config(core::PrefilterMode::kAuto);
  config.prefilter_backend_switch = 0.0;  // any survivor density is "dense"
  const auto filtered = core::CuBlastp(config).search(w.queries[0], w.db);
  const auto unfiltered =
      core::CuBlastp(base_config(core::PrefilterMode::kOff))
          .search(w.queries[0], w.db);
  expect_equivalent(unfiltered, filtered);
  EXPECT_TRUE(std::any_of(
      filtered.block_backends.begin(), filtered.block_backends.end(),
      [](core::BlockBackend b) { return b == core::BlockBackend::kCoarse; }));
  EXPECT_TRUE(filtered.profile.has(core::kKernelCoarse));
}

}  // namespace
}  // namespace repro
