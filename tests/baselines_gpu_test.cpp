// Tests for the coarse-grained GPU baselines (CUDA-BLASTP-sim and
// GPU-BLASTP-sim): output identity with FSA-BLAST and the execution-shape
// properties the paper attributes to the coarse mapping (high divergence,
// poor coalescing).
#include <gtest/gtest.h>

#include "baselines/coarse_gpu.hpp"
#include "baselines/cpu.hpp"
#include "bio/blosum.hpp"
#include "bio/generator.hpp"
#include "bio/pssm.hpp"
#include "blast/ungapped.hpp"
#include "blast/wordlookup.hpp"
#include "core/cublastp.hpp"
#include "core/kernels.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

struct Workload {
  std::vector<std::uint8_t> query;
  bio::SequenceDatabase db;
};

Workload make_workload(std::size_t query_len, std::size_t num_seqs,
                       std::uint64_t seed, double homolog_fraction = 0.06) {
  Workload w;
  w.query = bio::make_benchmark_query(query_len).residues;
  auto profile = bio::DatabaseProfile::swissprot_like(num_seqs);
  profile.homolog_fraction = homolog_fraction;
  bio::DatabaseGenerator gen(profile, seed);
  w.db = gen.generate(w.query);
  return w;
}

baselines::CoarseConfig small_config() {
  baselines::CoarseConfig config;
  config.grid_blocks = 2;
  config.block_threads = 64;
  config.db_blocks = 2;
  config.block_output_capacity = 64;  // also exercises overflow retries
  return config;
}

TEST(CudaBlastpSim, OutputIdenticalToFsaBlast) {
  const auto w = make_workload(127, 50, 71);
  const auto config = small_config();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = baselines::cuda_blastp_search(w.query, w.db, config);
  EXPECT_EQ(reference.alignments, report.result.alignments);
  ASSERT_FALSE(report.result.alignments.empty());
}

TEST(GpuBlastpSim, OutputIdenticalToFsaBlast) {
  const auto w = make_workload(127, 50, 73);
  const auto config = small_config();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto report = baselines::gpu_blastp_search(w.query, w.db, config);
  EXPECT_EQ(reference.alignments, report.result.alignments);
}

TEST(CoarseBaselines, MediumQueryIdentical) {
  const auto w = make_workload(517, 30, 79);
  const auto config = small_config();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  EXPECT_EQ(reference.alignments,
            baselines::cuda_blastp_search(w.query, w.db, config)
                .result.alignments);
  EXPECT_EQ(reference.alignments,
            baselines::gpu_blastp_search(w.query, w.db, config)
                .result.alignments);
}

TEST(CoarseBaselines, HitCountsMatchFsa) {
  const auto w = make_workload(127, 50, 83);
  const auto config = small_config();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params);
  const auto cuda = baselines::cuda_blastp_search(w.query, w.db, config);
  const auto gpu = baselines::gpu_blastp_search(w.query, w.db, config);
  EXPECT_EQ(reference.counters.hits_detected, cuda.result.counters.hits_detected);
  EXPECT_EQ(reference.counters.hits_detected, gpu.result.counters.hits_detected);
  EXPECT_EQ(reference.counters.words_scanned, cuda.result.counters.words_scanned);
}

TEST(CoarseBaselines, CountersMatchFsa) {
  // Every work counter the baselines share with FSA-BLAST means the same
  // thing: the fused kernel runs one inline extension per two-hit trigger,
  // so extensions run count as both filter survivors and ungapped
  // extensions, exactly as on the FSA path.
  const auto w = make_workload(127, 50, 71);
  const auto config = small_config();
  const auto reference =
      baselines::fsa_blast_search(w.query, w.db, config.params).counters;
  ASSERT_GT(reference.ungapped_extensions, 0u);
  for (const auto search :
       {&baselines::cuda_blastp_search, &baselines::gpu_blastp_search}) {
    const auto counters = search(w.query, w.db, config).result.counters;
    EXPECT_EQ(reference.words_scanned, counters.words_scanned);
    EXPECT_EQ(reference.hits_detected, counters.hits_detected);
    EXPECT_EQ(reference.hits_after_filter, counters.hits_after_filter);
    EXPECT_EQ(reference.ungapped_extensions, counters.ungapped_extensions);
    EXPECT_EQ(reference.gapped_extensions, counters.gapped_extensions);
    EXPECT_EQ(reference.tracebacks, counters.tracebacks);
  }
}

TEST(CoarseBaselines, OverflowRetryPreservesOutput) {
  const auto w = make_workload(127, 60, 89);
  auto tiny = small_config();
  tiny.block_output_capacity = 2;
  auto roomy = small_config();
  roomy.block_output_capacity = 1 << 16;
  const auto a = baselines::cuda_blastp_search(w.query, w.db, tiny);
  const auto b = baselines::cuda_blastp_search(w.query, w.db, roomy);
  EXPECT_GT(a.output_overflow_retries, 0u);
  EXPECT_EQ(b.output_overflow_retries, 0u);
  EXPECT_EQ(a.result.alignments, b.result.alignments);
}

TEST(CoarseBaselines, OutputThatNeverFitsThrowsAfterBoundedRetries) {
  // One grid block over a dense-homolog database emits more qualifying
  // extensions than a capacity of 1 reaches after the core retry bound's
  // doublings, so the search must fail instead of growing forever.
  const auto w = make_workload(127, 200, 113, /*homolog_fraction=*/1.0);
  auto config = small_config();
  config.grid_blocks = 1;
  config.db_blocks = 1;
  // The one grid block's output holds every qualifying extension of the
  // database; count them with the scalar two-hit loop.
  const blast::WordLookup lookup(w.query, bio::Blosum62::instance(),
                                 config.params);
  const bio::Pssm pssm(w.query, bio::Blosum62::instance());
  std::vector<blast::UngappedExtension> qualifying;
  (void)blast::run_ungapped_range(lookup, pssm, w.db, 0, w.db.size(),
                                  config.params, qualifying);
  const int max_retries = core::Config{}.max_bin_retries;
  ASSERT_GT(qualifying.size(), 1u << max_retries);

  config.block_output_capacity = 1;
  for (const auto search :
       {&baselines::cuda_blastp_search, &baselines::gpu_blastp_search}) {
    try {
      (void)search(w.query, w.db, config);
      ADD_FAILURE() << "an output that never fits must throw";
    } catch (const core::SearchError& e) {
      EXPECT_EQ(e.code(), core::SearchErrorCode::kBinOverflowExhausted)
          << e.what();
    }
  }
}

TEST(CoarseBaselines, CoarseKernelDivergesMoreThanFineGrained) {
  // The heart of the paper (Fig. 4 vs Fig. 19b): the one-thread-per-
  // sequence mapping serializes divergent branches, while the decoupled
  // fine-grained kernels stay far more converged.
  const auto w = make_workload(517, 40, 97);
  const auto coarse =
      baselines::cuda_blastp_search(w.query, w.db, small_config());
  core::Config fine;
  fine.db_blocks = 2;
  fine.detection_blocks = 2;
  const auto cu = core::CuBlastp(fine).search(w.query, w.db);

  const double coarse_div =
      coarse.profile.at(baselines::kCoarseKernel).divergence_overhead();
  const double fine_det_div =
      cu.profile.at(core::kKernelDetection).divergence_overhead();
  const double fine_sort_div =
      cu.profile.at(core::kKernelSort).divergence_overhead();
  EXPECT_GT(coarse_div, 0.5);
  EXPECT_LT(fine_det_div, coarse_div);
  EXPECT_LT(fine_sort_div, coarse_div);
}

TEST(CoarseBaselines, CoarseKernelPoorlyCoalesced) {
  // Fig. 19a: 5.2% (CUDA-BLASTP) and 11.5% (GPU-BLASTP) global load
  // efficiency vs 25-81% for the fine-grained kernels.
  const auto w = make_workload(517, 40, 101);
  const auto coarse =
      baselines::cuda_blastp_search(w.query, w.db, small_config());
  core::Config fine;
  fine.db_blocks = 2;
  fine.detection_blocks = 2;
  const auto cu = core::CuBlastp(fine).search(w.query, w.db);

  const double coarse_eff =
      coarse.profile.at(baselines::kCoarseKernel).global_load_efficiency();
  EXPECT_LT(coarse_eff, 0.30);
  EXPECT_GT(cu.profile.at(core::kKernelSort).global_load_efficiency(),
            coarse_eff);
  EXPECT_GT(cu.profile.at(core::kKernelFilter).global_load_efficiency(),
            coarse_eff);
}

TEST(CoarseBaselines, DynamicQueueBalancesBetterThanStaticOnSkew) {
  // GPU-BLASTP's work queue exists to fix load imbalance. Construct a
  // skewed database (few long sequences among many short ones) and check
  // the dynamic queue wastes fewer issue slots than static assignment
  // without length sorting would.
  std::vector<bio::Sequence> seqs;
  util::Rng rng(103);
  for (int i = 0; i < 128; ++i) {
    const std::size_t len = (i % 37 == 0) ? 2000 : 60;
    std::string id = "s";
    id += std::to_string(i);
    seqs.push_back({std::move(id), "", bio::random_protein(len, rng)});
  }
  bio::SequenceDatabase db(std::move(seqs));
  const auto query = bio::make_benchmark_query(127).residues;

  auto config = small_config();
  config.db_blocks = 1;
  const auto dynamic = baselines::gpu_blastp_search(query, db, config);
  const auto sorted_static = baselines::cuda_blastp_search(query, db, config);
  EXPECT_EQ(dynamic.result.alignments, sorted_static.result.alignments);
  // Both mitigation strategies should produce a working search; their
  // kernels remain highly divergent regardless (the paper's point).
  EXPECT_GT(dynamic.profile.at(baselines::kCoarseKernel)
                .divergence_overhead(),
            0.3);
}

TEST(CoarseBaselines, NoReadOnlyCacheUse) {
  const auto w = make_workload(127, 30, 107);
  const auto report =
      baselines::cuda_blastp_search(w.query, w.db, small_config());
  EXPECT_EQ(report.profile.at(baselines::kCoarseKernel).rocache_hits, 0u);
}

TEST(CoarseBaselines, EmptyDatabase) {
  const auto query = bio::make_benchmark_query(127).residues;
  bio::SequenceDatabase db;
  const auto report =
      baselines::gpu_blastp_search(query, db, small_config());
  EXPECT_TRUE(report.result.alignments.empty());
}

}  // namespace
}  // namespace repro
