// Figure 18 (a-h): cuBLASTP speedups over FSA-BLAST, 4-thread NCBI-BLAST,
// CUDA-BLASTP and GPU-BLASTP — critical phases (hit detection + ungapped
// extension) and overall — for query127/517/1054 on both databases.
//
// Paper (maximum speedups): vs FSA-BLAST up to 7.9x critical / 6x overall;
// vs NCBI-BLAST(4T) up to 3.1x critical / 3.4x overall; vs CUDA-BLASTP up
// to 2.9x critical / 2.8x overall; vs GPU-BLASTP up to 1.6x critical /
// 1.9x overall. Absolute ratios here depend on the cost-model calibration
// (simulated GPU vs measured host CPU); the reproduced claims are the
// orderings: cuBLASTP fastest everywhere, FSA slowest, GPU-BLASTP the
// closest competitor.
#include <cstdio>
#include <sstream>

#include "common.hpp"

namespace {

using namespace repro;

struct EngineTimes {
  double critical_s = 0.0;
  double overall_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Options options(argc, argv);
  const auto setup = benchx::BenchSetup::from_options(options);
  if (options.has("json"))
    return benchx::run_engine_wallclock_json(options, setup);
  benchx::print_banner(
      "Figure 18: cuBLASTP speedup over FSA-BLAST / NCBI-BLAST(4T) / "
      "CUDA-BLASTP / GPU-BLASTP",
      "cuBLASTP wins everywhere; max critical speedups 7.9x/3.1x/2.9x/1.6x "
      "and overall 6x/3.4x/2.8x/1.9x respectively",
      setup);

  const blast::SearchParams params;
  util::Table critical_table({"db", "query", "vs FSA", "vs NCBI-4T",
                              "vs CUDA-BLASTP", "vs GPU-BLASTP"});
  util::Table overall_table({"db", "query", "vs FSA", "vs NCBI-4T",
                             "vs CUDA-BLASTP", "vs GPU-BLASTP"});
  std::ostringstream modeled, ratios;
  modeled << "[";
  ratios << "[";
  bool first = true;

  for (const bool env_nr : {false, true}) {
    for (const std::size_t qlen : benchx::kQueryLengths) {
      const auto w = benchx::make_workload(setup, qlen, env_nr);

      const auto fsa = baselines::fsa_blast_search(w.query, w.db, params);
      const EngineTimes fsa_t{fsa.timings.critical(), fsa.timings.total()};

      const auto ncbi = baselines::ncbi_mt_search(w.query, w.db, params, 4);
      const EngineTimes ncbi_t{ncbi.timings.critical(),
                               ncbi.timings.total()};

      const auto cuda = baselines::cuda_blastp_search(
          w.query, w.db, benchx::default_coarse_config());
      const EngineTimes cuda_t{cuda.critical_ms() / 1e3,
                               cuda.total_seconds};

      const auto gpu = baselines::gpu_blastp_search(
          w.query, w.db, benchx::default_coarse_config());
      const EngineTimes gpu_t{gpu.critical_ms() / 1e3, gpu.total_seconds};

      const auto cu = core::CuBlastp(benchx::default_cublastp_config())
                          .search(w.query, w.db);
      const EngineTimes cu_t{cu.gpu_critical_ms() / 1e3,
                             cu.overlapped_total_seconds};

      auto ratio = [&](const EngineTimes& other, bool critical) {
        const double mine = critical ? cu_t.critical_s : cu_t.overall_s;
        const double theirs = critical ? other.critical_s : other.overall_s;
        return util::Table::num(theirs / mine, 2) + "x";
      };
      const std::string db_name = env_nr ? "env_nr" : "swissprot";
      critical_table.add_row({db_name, w.query_name, ratio(fsa_t, true),
                              ratio(ncbi_t, true), ratio(cuda_t, true),
                              ratio(gpu_t, true)});
      overall_table.add_row({db_name, w.query_name, ratio(fsa_t, false),
                             ratio(ncbi_t, false), ratio(cuda_t, false),
                             ratio(gpu_t, false)});

      if (!first) {
        modeled << ", ";
        ratios << ", ";
      }
      first = false;
      // Modeled kernel times are bit-stable; the speedup ratios fold in
      // host-measured CPU phases, so they live in "measured".
      modeled << "{\"db\": \"" << db_name << "\", \"query\": \""
              << w.query_name
              << "\", \"cu_critical_ms\": " << cu.gpu_critical_ms()
              << ", \"cuda_critical_ms\": " << cuda.critical_ms()
              << ", \"gpu_critical_ms\": " << gpu.critical_ms()
              << ", \"alignments\": " << cu.result.alignments.size() << "}";
      ratios << "{\"db\": \"" << db_name << "\", \"query\": \""
             << w.query_name
             << "\", \"critical_vs_fsa\": "
             << fsa_t.critical_s / cu_t.critical_s
             << ", \"critical_vs_ncbi4\": "
             << ncbi_t.critical_s / cu_t.critical_s
             << ", \"critical_vs_cuda\": "
             << cuda_t.critical_s / cu_t.critical_s
             << ", \"critical_vs_gpu\": " << gpu_t.critical_s / cu_t.critical_s
             << ", \"overall_vs_fsa\": " << fsa_t.overall_s / cu_t.overall_s
             << ", \"overall_vs_ncbi4\": "
             << ncbi_t.overall_s / cu_t.overall_s
             << ", \"overall_vs_cuda\": " << cuda_t.overall_s / cu_t.overall_s
             << ", \"overall_vs_gpu\": " << gpu_t.overall_s / cu_t.overall_s
             << "}";

      // Sanity: every engine must agree on the biology.
      if (fsa.alignments != cu.result.alignments ||
          fsa.alignments != ncbi.alignments ||
          fsa.alignments != cuda.result.alignments ||
          fsa.alignments != gpu.result.alignments) {
        std::printf("ERROR: engines disagree on %s/%s output!\n",
                    db_name.c_str(), w.query_name.c_str());
        return 1;
      }
    }
  }

  std::printf("Critical phases (hit detection + ungapped extension), "
              "cuBLASTP speedup:\n%s\n",
              critical_table.render().c_str());
  std::printf("Overall search, cuBLASTP speedup:\n%s\n",
              overall_table.render().c_str());
  std::printf("All engines produced identical alignments on every "
              "workload (paper §4.3).\n");
  modeled << "]";
  ratios << "]";

  benchx::BenchResult json("fig18_speedup",
                           benchx::default_cublastp_config(), setup);
  json.deterministic_raw("modeled", modeled.str());
  json.deterministic("engines_agree", static_cast<std::uint64_t>(1));
  json.measured_raw("speedups", ratios.str());
  return json.write(options, "bench_results/fig18_speedup.json");
}
