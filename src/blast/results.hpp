// Final-phase plumbing shared by all engines: running the gapped and
// traceback stages over ungapped survivors, de-duplicating HSPs, attaching
// e-values, and ranking — so that two engines that agree on the ungapped
// survivors provably produce identical SearchResults.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bio/database.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "blast/types.hpp"

namespace repro::blast {

/// Seeds that survived the ungapped stage, grouped however the engine
/// produced them. process_gapped_stage sorts and de-duplicates internally.
struct GappedStageOutput {
  std::vector<Alignment> alignments;  ///< unranked, evalue not yet attached
  std::uint64_t gapped_extensions = 0;
  std::uint64_t tracebacks = 0;
  double gapped_seconds = 0.0;
  double traceback_seconds = 0.0;
  /// Per-seed costs (seconds), for the makespan scheduling model.
  std::vector<double> gapped_task_costs;
  std::vector<double> traceback_task_costs;
};

/// Fewest distinct seeds per worker before process_gapped_stage spreads a
/// call over more than one thread. Smaller calls run serially: a handful of
/// seeds is usually dominated by one long homolog extension, and the pool's
/// start-up and cold caches then cost more than the workers save.
inline constexpr std::size_t kMinSeedsPerWorker = 16;

/// Runs gapped extension (score pass) and alignment-with-traceback for
/// every qualifying seed. Seeds whose gapped score fails the e-value cutoff
/// are dropped before traceback, as in BLAST. Seeds run on
/// min(threads, seeds / kMinSeedsPerWorker) workers of a pool private to
/// the call (serially below two), and their results are merged in seed
/// order: alignments, counters, the task order of the cost vectors and the
/// summation order of the cost totals are the serial loop's at every thread
/// count. Deterministic regardless of the input order of `extensions`.
[[nodiscard]] GappedStageOutput process_gapped_stage(
    const bio::Pssm& pssm, const bio::SequenceDatabase& db,
    std::span<const UngappedExtension> extensions, const SearchParams& params,
    const bio::EvalueCalculator& evalue, std::size_t threads = 1);

/// Attaches e-values/bit scores, filters by params.max_evalue, and ranks
/// best-first (score desc, then seq, then coordinates — a total order, so
/// ranking is deterministic).
void finalize_results(std::vector<Alignment>& alignments,
                      const SearchParams& params,
                      const bio::EvalueCalculator& evalue);

/// Removes duplicate and strictly-contained HSPs per subject sequence.
/// Exposed for the hit-based extension path, which produces redundant
/// extensions by design (paper Algorithm 4 requires a de-duplication step).
void dedupe_extensions(std::vector<UngappedExtension>& extensions);

/// Pretty-prints an alignment the way blastp output does (three-row blocks:
/// query, midline, subject).
[[nodiscard]] std::string format_alignment(
    std::span<const std::uint8_t> query, const bio::SequenceDatabase& db,
    const Alignment& alignment, std::size_t width = 60);

}  // namespace repro::blast
