// Ungapped x-drop extension and the two-hit trigger.
//
// These scalar routines define the semantics every engine must reproduce:
//
//  * extend_ungapped — from a word hit, extend left and right along the
//    diagonal, keeping the maximal-scoring segment, stopping when the
//    running score drops more than X_u below the best (paper Fig. 8).
//
//  * TwoHitTracker — the lasthit_arr logic of paper Algorithm 1, with the
//    coverage rule made explicit: a hit triggers an extension iff
//      (a) the previous hit on its diagonal is within the window A
//          (or params.one_hit is set), and
//      (b) the hit is not already covered by the previous extension on the
//          diagonal (spos > ext_reach).
//    These are exactly the conditions the fine-grained pipeline evaluates in
//    its filtering kernel (a) and extension kernels (b), which is what makes
//    "output identical to FSA-BLAST" (paper §4.3) provable here.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bio/database.hpp"
#include "bio/pssm.hpp"
#include "blast/types.hpp"

namespace repro::blast {

/// Ungapped x-drop extension of the word hit (qpos, spos). Scores via PSSM.
[[nodiscard]] UngappedExtension extend_ungapped(
    const bio::Pssm& pssm, std::span<const std::uint8_t> subject,
    std::uint32_t seq_index, std::uint32_t qpos, std::uint32_t spos,
    const SearchParams& params);

/// Per-sequence two-hit state over all diagonals (classic lasthit_arr).
/// Reusable across sequences via reset(); allocation is O(max diagonals).
class TwoHitTracker {
 public:
  /// `max_diagonals` must cover query_length + max subject length.
  explicit TwoHitTracker(std::size_t max_diagonals);

  /// Starts a new subject sequence (O(1): epoch trick).
  void reset();

  /// Feeds one hit (column-major order required). Returns true if the hit
  /// triggers an ungapped extension per the rules above; the caller performs
  /// the extension and must then report it via record_extension().
  bool feed(std::uint32_t qpos, std::uint32_t spos,
            std::size_t query_length, const SearchParams& params);

  /// Records the subject-end of the extension just performed for this
  /// diagonal, so later hits covered by it are skipped.
  void record_extension(std::uint32_t qpos, std::uint32_t spos,
                        std::size_t query_length,
                        const UngappedExtension& ext);

 private:
  struct DiagonalState {
    std::uint64_t epoch = 0;
    std::int64_t last_spos = -1;   ///< previous hit position
    std::int64_t ext_reach = -1;   ///< subject end of previous extension
  };

  std::vector<DiagonalState> diagonals_;
  std::uint64_t epoch_ = 0;
};

/// Runs hit detection + two-hit ungapped extension over one subject
/// sequence, appending qualifying extensions (score >= ungapped_cutoff) to
/// `out` and returning counters. This is the reference "critical phases"
/// implementation shared by the CPU baselines.
struct UngappedPhaseCounters {
  std::uint64_t words_scanned = 0;
  std::uint64_t hits = 0;
  std::uint64_t extensions_run = 0;

  UngappedPhaseCounters& operator+=(const UngappedPhaseCounters& other) {
    words_scanned += other.words_scanned;
    hits += other.hits;
    extensions_run += other.extensions_run;
    return *this;
  }
};

class WordLookup;  // seeding.hpp provides the scan

UngappedPhaseCounters run_ungapped_phase(
    const WordLookup& lookup, const bio::Pssm& pssm,
    std::span<const std::uint8_t> subject, std::uint32_t seq_index,
    const SearchParams& params, TwoHitTracker& tracker,
    std::vector<UngappedExtension>& out);

/// run_ungapped_phase over database sequences [begin, end) with one tracker
/// sized for the query and the database's longest sequence. Extensions
/// carry database sequence indices; the counters are summed over the range.
UngappedPhaseCounters run_ungapped_range(
    const WordLookup& lookup, const bio::Pssm& pssm,
    const bio::SequenceDatabase& db, std::size_t begin, std::size_t end,
    const SearchParams& params, std::vector<UngappedExtension>& out);

}  // namespace repro::blast
