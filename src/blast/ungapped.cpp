#include "blast/ungapped.hpp"

#include <cassert>

#include "blast/seeding.hpp"
#include "blast/wordlookup.hpp"

namespace repro::blast {

UngappedExtension extend_ungapped(const bio::Pssm& pssm,
                                  std::span<const std::uint8_t> subject,
                                  std::uint32_t seq_index, std::uint32_t qpos,
                                  std::uint32_t spos,
                                  const SearchParams& params) {
  const auto w = static_cast<std::uint32_t>(params.word_length);
  const auto qlen = static_cast<std::uint32_t>(pssm.query_length());
  const auto slen = static_cast<std::uint32_t>(subject.size());
  assert(qpos + w <= qlen && spos + w <= slen);

  // Score of the seed word itself.
  int word_score = 0;
  for (std::uint32_t i = 0; i < w; ++i)
    word_score += pssm.score(qpos + i, subject[spos + i]);

  // Extend right of the word.
  int right_gain = 0;
  std::uint32_t right_offset = 0;  // residues adopted past the word
  {
    int running = 0, best = 0;
    for (std::uint32_t k = 0;
         qpos + w + k < qlen && spos + w + k < slen; ++k) {
      running += pssm.score(qpos + w + k, subject[spos + w + k]);
      if (running > best) {
        best = running;
        right_offset = k + 1;
      }
      if (best - running > params.ungapped_xdrop) break;
    }
    right_gain = best;
  }

  // Extend left of the word.
  int left_gain = 0;
  std::uint32_t left_offset = 0;
  {
    int running = 0, best = 0;
    for (std::uint32_t k = 1; k <= qpos && k <= spos; ++k) {
      running += pssm.score(qpos - k, subject[spos - k]);
      if (running > best) {
        best = running;
        left_offset = k;
      }
      if (best - running > params.ungapped_xdrop) break;
    }
    left_gain = best;
  }

  UngappedExtension ext;
  ext.seq = seq_index;
  ext.q_start = qpos - left_offset;
  ext.s_start = spos - left_offset;
  ext.q_end = qpos + w - 1 + right_offset;
  ext.s_end = spos + w - 1 + right_offset;
  ext.score = word_score + left_gain + right_gain;
  return ext;
}

TwoHitTracker::TwoHitTracker(std::size_t max_diagonals)
    : diagonals_(max_diagonals) {}

void TwoHitTracker::reset() { ++epoch_; }

bool TwoHitTracker::feed(std::uint32_t qpos, std::uint32_t spos,
                         std::size_t query_length,
                         const SearchParams& params) {
  const std::size_t diag =
      static_cast<std::size_t>(static_cast<std::int64_t>(spos) -
                               static_cast<std::int64_t>(qpos) +
                               static_cast<std::int64_t>(query_length) - 1);
  assert(diag < diagonals_.size());
  DiagonalState& state = diagonals_[diag];
  if (state.epoch != epoch_) {
    state.epoch = epoch_;
    state.last_spos = -1;
    state.ext_reach = -1;
  }
  const std::int64_t prev = state.last_spos;
  state.last_spos = spos;
  if (static_cast<std::int64_t>(spos) <= state.ext_reach)
    return false;  // covered by the previous extension on this diagonal
  if (params.one_hit) return true;
  return prev >= 0 && static_cast<std::int64_t>(spos) - prev <=
                          static_cast<std::int64_t>(params.two_hit_window);
}

void TwoHitTracker::record_extension(std::uint32_t qpos, std::uint32_t spos,
                                     std::size_t query_length,
                                     const UngappedExtension& ext) {
  const std::size_t diag =
      static_cast<std::size_t>(static_cast<std::int64_t>(spos) -
                               static_cast<std::int64_t>(qpos) +
                               static_cast<std::int64_t>(query_length) - 1);
  assert(diag < diagonals_.size());
  diagonals_[diag].ext_reach = static_cast<std::int64_t>(ext.s_end);
}

UngappedPhaseCounters run_ungapped_phase(
    const WordLookup& lookup, const bio::Pssm& pssm,
    std::span<const std::uint8_t> subject, std::uint32_t seq_index,
    const SearchParams& params, TwoHitTracker& tracker,
    std::vector<UngappedExtension>& out) {
  UngappedPhaseCounters counters;
  tracker.reset();
  counters.words_scanned = scan_subject(
      lookup, subject, [&](std::uint32_t qpos, std::uint32_t spos) {
        ++counters.hits;
        if (!tracker.feed(qpos, spos, pssm.query_length(), params)) return;
        const UngappedExtension ext = extend_ungapped(
            pssm, subject, seq_index, qpos, spos, params);
        ++counters.extensions_run;
        tracker.record_extension(qpos, spos, pssm.query_length(), ext);
        if (ext.score >= params.ungapped_cutoff) out.push_back(ext);
      });
  return counters;
}

UngappedPhaseCounters run_ungapped_range(
    const WordLookup& lookup, const bio::Pssm& pssm,
    const bio::SequenceDatabase& db, std::size_t begin, std::size_t end,
    const SearchParams& params, std::vector<UngappedExtension>& out) {
  UngappedPhaseCounters total;
  TwoHitTracker tracker(pssm.query_length() + db.max_length() + 2);
  for (std::size_t i = begin; i < end; ++i)
    total += run_ungapped_phase(lookup, pssm, db.residues(i),
                                static_cast<std::uint32_t>(i), params,
                                tracker, out);
  return total;
}

}  // namespace repro::blast
