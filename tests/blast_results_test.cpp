// Tests for the result-processing layer: extension de-duplication, the
// gapped stage's determinism and partition invariance (a regression test
// for an order-dependent tie-break bug), ranking, and formatting.
#include <gtest/gtest.h>

#include <algorithm>

#include "bio/generator.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/results.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using blast::UngappedExtension;

UngappedExtension make_ext(std::uint32_t seq, std::uint32_t q_start,
                           std::uint32_t q_end, std::int32_t diag,
                           std::int32_t score) {
  UngappedExtension e;
  e.seq = seq;
  e.q_start = q_start;
  e.q_end = q_end;
  e.s_start = static_cast<std::uint32_t>(
      static_cast<std::int32_t>(q_start) + diag);
  e.s_end = static_cast<std::uint32_t>(static_cast<std::int32_t>(q_end) +
                                       diag);
  e.score = score;
  return e;
}

TEST(DedupeExtensions, RemovesExactDuplicates) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 20, 3, 50),
                                         make_ext(0, 5, 20, 3, 50),
                                         make_ext(0, 5, 20, 3, 50)};
  blast::dedupe_extensions(exts);
  EXPECT_EQ(exts.size(), 1u);
}

TEST(DedupeExtensions, DropsContainedWeakerOnSameDiagonal) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 40, 3, 90),
                                         make_ext(0, 10, 30, 3, 50)};
  blast::dedupe_extensions(exts);
  ASSERT_EQ(exts.size(), 1u);
  EXPECT_EQ(exts[0].score, 90);
}

TEST(DedupeExtensions, KeepsContainedStronger) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 40, 3, 50),
                                         make_ext(0, 10, 30, 3, 90)};
  blast::dedupe_extensions(exts);
  EXPECT_EQ(exts.size(), 2u);
}

TEST(DedupeExtensions, DifferentDiagonalsOrSequencesKept) {
  std::vector<UngappedExtension> exts = {make_ext(0, 5, 40, 3, 50),
                                         make_ext(0, 5, 40, 4, 50),
                                         make_ext(1, 5, 40, 3, 50)};
  blast::dedupe_extensions(exts);
  EXPECT_EQ(exts.size(), 3u);
}

struct StageFixture {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
  blast::SearchParams params;
  std::vector<UngappedExtension> extensions;

  explicit StageFixture(std::uint64_t seed, std::size_t sequences = 80) {
    query = bio::make_benchmark_query(300).residues;
    auto profile = bio::DatabaseProfile::swissprot_like(sequences);
    profile.homolog_fraction = 0.15;
    bio::DatabaseGenerator gen(profile, seed);
    db = gen.generate(query);
    blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
    bio::Pssm pssm(query, bio::Blosum62::instance());
    blast::run_ungapped_range(lookup, pssm, db, 0, db.size(), params,
                              extensions);
  }
};

/// Worker counts the stage must be invariant across (7 oversubscribes a
/// small host and leaves a ragged last round of seeds).
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 7};

/// The serial loop's output, which every thread count must reproduce:
/// alignments in order, counters, and one cost per task.
void expect_same_stage(const blast::GappedStageOutput& serial,
                       const blast::GappedStageOutput& run,
                       std::size_t threads) {
  EXPECT_EQ(serial.alignments, run.alignments) << threads << " threads";
  EXPECT_EQ(serial.gapped_extensions, run.gapped_extensions);
  EXPECT_EQ(serial.tracebacks, run.tracebacks);
  EXPECT_EQ(serial.gapped_task_costs.size(), run.gapped_task_costs.size());
  EXPECT_EQ(serial.traceback_task_costs.size(),
            run.traceback_task_costs.size());
  EXPECT_EQ(run.gapped_task_costs.size(), run.gapped_extensions);
  EXPECT_EQ(run.traceback_task_costs.size(), run.tracebacks);
}

/// Large enough that the stage's seeds fill 7 workers.
constexpr std::size_t kThreadedSequences = 500;

TEST(GappedStage, DeterministicAndInputOrderInvariant) {
  StageFixture fx(401, kThreadedSequences);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  const auto serial = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                                  fx.params, evalue);
  ASSERT_GT(serial.tracebacks, 0u);
  // Enough seeds that every thread count below really runs that many
  // workers.
  ASSERT_GE(serial.gapped_extensions, 7 * blast::kMinSeedsPerWorker);
  auto shuffled = fx.extensions;
  util::Rng rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  for (const std::size_t threads : kThreadCounts) {
    expect_same_stage(serial,
                      blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                                  fx.params, evalue, threads),
                      threads);
    expect_same_stage(serial,
                      blast::process_gapped_stage(pssm, fx.db, shuffled,
                                                  fx.params, evalue, threads),
                      threads);
  }
}

TEST(GappedStage, PartitionInvariant) {
  // Regression test: running the stage per database block must produce the
  // same set as one global run — this requires every sort in the result
  // path to break ties on full alignment content (an earlier version
  // dropped different ops-variants of equal-score alignments depending on
  // the partition). Holds at every worker count.
  StageFixture fx(409, kThreadedSequences);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  auto global = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                            fx.params, evalue);
  blast::finalize_results(global.alignments, fx.params, evalue);

  for (const std::size_t threads : kThreadCounts) {
    for (const std::size_t blocks : {2u, 3u, 7u}) {
      std::vector<blast::Alignment> merged;
      std::uint64_t gapped_extensions = 0, tracebacks = 0;
      const auto spans = fx.db.split_blocks(blocks);
      for (const auto& [lo, hi] : spans) {
        std::vector<UngappedExtension> subset;
        for (const auto& e : fx.extensions)
          if (e.seq >= lo && e.seq < hi) subset.push_back(e);
        auto part = blast::process_gapped_stage(pssm, fx.db, subset,
                                                fx.params, evalue, threads);
        gapped_extensions += part.gapped_extensions;
        tracebacks += part.tracebacks;
        merged.insert(merged.end(), part.alignments.begin(),
                      part.alignments.end());
      }
      blast::finalize_results(merged, fx.params, evalue);
      EXPECT_EQ(global.alignments, merged)
          << blocks << " blocks, " << threads << " threads";
      EXPECT_EQ(global.gapped_extensions, gapped_extensions);
      EXPECT_EQ(global.tracebacks, tracebacks);
    }
  }
}

TEST(GappedStage, SharedSeedsComputedOnce) {
  StageFixture fx(419);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  // Duplicate every extension: seed de-duplication must keep the gapped
  // work identical.
  auto doubled = fx.extensions;
  doubled.insert(doubled.end(), fx.extensions.begin(), fx.extensions.end());
  const auto once = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                                fx.params, evalue);
  const auto twice = blast::process_gapped_stage(pssm, fx.db, doubled,
                                                 fx.params, evalue);
  EXPECT_EQ(once.gapped_extensions, twice.gapped_extensions);
  EXPECT_EQ(once.alignments, twice.alignments);
}

TEST(FinalizeResults, FiltersAndRanks) {
  StageFixture fx(421);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  auto stage = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                           fx.params, evalue);
  blast::finalize_results(stage.alignments, fx.params, evalue);
  ASSERT_FALSE(stage.alignments.empty());
  for (std::size_t i = 0; i < stage.alignments.size(); ++i) {
    EXPECT_LE(stage.alignments[i].evalue, fx.params.max_evalue);
    EXPECT_GT(stage.alignments[i].bit_score, 0.0);
    if (i > 0) {
      EXPECT_GE(stage.alignments[i - 1].score, stage.alignments[i].score);
    }
  }
}

TEST(FormatAlignment, CoordinatesConsistentWithOps) {
  StageFixture fx(431);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  bio::EvalueCalculator evalue(bio::blosum62_gapped_11_1(), fx.query.size(),
                               fx.db.total_residues(), fx.db.size());
  auto stage = blast::process_gapped_stage(pssm, fx.db, fx.extensions,
                                           fx.params, evalue);
  blast::finalize_results(stage.alignments, fx.params, evalue);
  ASSERT_FALSE(stage.alignments.empty());
  for (const auto& a : stage.alignments) {
    const auto m = std::count(a.ops.begin(), a.ops.end(), 'M');
    const auto d = std::count(a.ops.begin(), a.ops.end(), 'D');
    const auto ins = std::count(a.ops.begin(), a.ops.end(), 'I');
    EXPECT_EQ(static_cast<std::uint32_t>(m + d), a.q_end - a.q_start + 1);
    EXPECT_EQ(static_cast<std::uint32_t>(m + ins), a.s_end - a.s_start + 1);
    // And the renderer must not crash / must contain both coordinates.
    const std::string text =
        blast::format_alignment(fx.query, fx.db, a);
    EXPECT_NE(text.find(std::to_string(a.q_start + 1)), std::string::npos);
  }
}

}  // namespace
}  // namespace repro
