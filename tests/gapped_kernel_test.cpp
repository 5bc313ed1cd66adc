// Tests for the GPU gapped-extension ablation kernel (paper §3.6's
// rejected alternative): the banded-linear score must lower-bound the
// exact affine score, recover most of it on homologs, and the kernel must
// exhibit the divergence the paper predicts.
#include <gtest/gtest.h>

#include "bio/generator.hpp"
#include "bio/pssm.hpp"
#include "blast/gapped.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "core/gapped_kernel.hpp"

namespace repro {
namespace {

struct Fixture {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
  blast::SearchParams params;
  std::vector<blast::UngappedExtension> seeds;

  explicit Fixture(std::uint64_t seed_value) {
    query = bio::make_benchmark_query(200).residues;
    auto profile = bio::DatabaseProfile::swissprot_like(60);
    profile.homolog_fraction = 0.25;
    bio::DatabaseGenerator gen(profile, seed_value);
    db = gen.generate(query);
    blast::WordLookup lookup(query, bio::Blosum62::instance(), params);
    bio::Pssm pssm(query, bio::Blosum62::instance());
    blast::run_ungapped_range(lookup, pssm, db, 0, db.size(), params, seeds);
  }
};

TEST(GpuGappedKernel, LowerBoundsExactAffineScores) {
  Fixture fx(701);
  ASSERT_FALSE(fx.seeds.empty());
  blast::WordLookup lookup(fx.query, bio::Blosum62::instance(), fx.params);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  core::QueryDevice dq(fx.query, lookup, pssm);
  core::BlockDevice blk(fx.db, 0, fx.db.size());
  simt::Engine engine;
  core::Config config;
  const auto gpu = core::launch_gapped_extension_gpu(engine, config, dq,
                                                     blk, fx.seeds);
  ASSERT_EQ(gpu.scores.size(), fx.seeds.size());
  double recovered = 0.0;
  for (std::size_t i = 0; i < fx.seeds.size(); ++i) {
    const auto& s = fx.seeds[i];
    const auto exact = blast::gapped_score(pssm, fx.db.residues(s.seq),
                                           s.q_seed(), s.s_seed(),
                                           fx.params);
    // Linear gaps cost at least as much as affine ones and the band is a
    // restriction: the GPU score can never exceed the exact score.
    EXPECT_LE(gpu.scores[i], exact.score) << "seed " << i;
    if (exact.score > 0)
      recovered += static_cast<double>(gpu.scores[i]) / exact.score;
  }
  // ...but it should still recover most of the score (the modified DP of
  // CUDA-BLASTP was usable, just not exact).
  EXPECT_GT(recovered / static_cast<double>(fx.seeds.size()), 0.7);
}

TEST(GpuGappedKernel, WiderBandNeverLowersScores) {
  Fixture fx(709);
  blast::WordLookup lookup(fx.query, bio::Blosum62::instance(), fx.params);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  core::QueryDevice dq(fx.query, lookup, pssm);
  core::BlockDevice blk(fx.db, 0, fx.db.size());
  core::Config config;
  simt::Engine engine;
  const auto narrow = core::launch_gapped_extension_gpu(engine, config, dq,
                                                        blk, fx.seeds, 5);
  const auto wide = core::launch_gapped_extension_gpu(engine, config, dq,
                                                      blk, fx.seeds, 21);
  for (std::size_t i = 0; i < fx.seeds.size(); ++i)
    EXPECT_LE(narrow.scores[i], wide.scores[i]) << "seed " << i;
}

TEST(GpuGappedKernel, DivergenceIsHigh) {
  // The paper's reason to keep this phase on the CPU: per-lane extensions
  // of wildly different lengths serialize.
  Fixture fx(719);
  blast::WordLookup lookup(fx.query, bio::Blosum62::instance(), fx.params);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  core::QueryDevice dq(fx.query, lookup, pssm);
  core::BlockDevice blk(fx.db, 0, fx.db.size());
  core::Config config;
  simt::Engine engine;
  (void)core::launch_gapped_extension_gpu(engine, config, dq, blk, fx.seeds);
  ASSERT_TRUE(engine.profile().has(core::kKernelGpuGapped));
  EXPECT_GT(engine.profile().at(core::kKernelGpuGapped)
                .divergence_overhead(),
            0.3);
}

TEST(GpuGappedKernel, RejectsBadBand) {
  Fixture fx(727);
  blast::WordLookup lookup(fx.query, bio::Blosum62::instance(), fx.params);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  core::QueryDevice dq(fx.query, lookup, pssm);
  core::BlockDevice blk(fx.db, 0, fx.db.size());
  core::Config config;
  simt::Engine engine;
  EXPECT_THROW((void)core::launch_gapped_extension_gpu(engine, config, dq,
                                                       blk, fx.seeds, 4),
               std::invalid_argument);
  EXPECT_THROW((void)core::launch_gapped_extension_gpu(engine, config, dq,
                                                       blk, fx.seeds, 33),
               std::invalid_argument);
}

TEST(GpuGappedKernel, EmptySeedsOk) {
  Fixture fx(733);
  blast::WordLookup lookup(fx.query, bio::Blosum62::instance(), fx.params);
  bio::Pssm pssm(fx.query, bio::Blosum62::instance());
  core::QueryDevice dq(fx.query, lookup, pssm);
  core::BlockDevice blk(fx.db, 0, fx.db.size());
  core::Config config;
  simt::Engine engine;
  const auto result =
      core::launch_gapped_extension_gpu(engine, config, dq, blk, {});
  EXPECT_TRUE(result.scores.empty());
}

}  // namespace
}  // namespace repro
