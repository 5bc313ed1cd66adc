#include "blast/wordlookup.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace repro::blast {

namespace {

std::uint32_t pow_alphabet(int w) {
  std::uint32_t n = 1;
  for (int i = 0; i < w; ++i) n *= bio::kAlphabetSize;
  return n;
}

}  // namespace

WordLookup::WordLookup(std::span<const std::uint8_t> query,
                       const bio::Blosum62& matrix,
                       const SearchParams& params)
    : w_(params.word_length),
      query_length_(query.size()),
      num_words_(0) {
  if (w_ < 2 || w_ > 5)
    throw std::invalid_argument("WordLookup: word_length must be in [2,5]");
  num_words_ = pow_alphabet(w_);

  const int t = params.neighbor_threshold;
  const int max_pair = matrix.max_score();
  const auto num_positions =
      query.size() >= static_cast<std::size_t>(w_)
          ? query.size() - static_cast<std::size_t>(w_) + 1
          : 0;

  // Enumerate, for each query word position, all W-mers of standard amino
  // acids scoring >= T against it. Depth-first with optimistic pruning: a
  // partial word is abandoned when even perfect remaining matches cannot
  // reach T.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;  // word, pos
  std::array<std::uint8_t, 8> word{};
  for (std::size_t pos = 0; pos < num_positions; ++pos) {
    const std::uint8_t* q = query.data() + pos;

    // Iterative DFS over word letters.
    int depth = 0;
    word[0] = 0;
    std::array<int, 8> partial{};  // score of word[0..depth)
    while (depth >= 0) {
      if (word[static_cast<std::size_t>(depth)] >=
          bio::kNumRealAminoAcids) {
        --depth;
        if (depth >= 0) ++word[static_cast<std::size_t>(depth)];
        continue;
      }
      const int score =
          partial[static_cast<std::size_t>(depth)] +
          matrix.score(q[depth], word[static_cast<std::size_t>(depth)]);
      const int remaining = (w_ - depth - 1) * max_pair;
      if (score + remaining < t) {
        ++word[static_cast<std::size_t>(depth)];
        continue;
      }
      if (depth + 1 == w_) {
        if (score >= t)
          entries.emplace_back(word_index(word.data(), w_),
                               static_cast<std::uint32_t>(pos));
        ++word[static_cast<std::size_t>(depth)];
      } else {
        partial[static_cast<std::size_t>(depth + 1)] = score;
        ++depth;
        word[static_cast<std::size_t>(depth)] = 0;
      }
    }
  }

  // Bucket entries by word index (counting sort keeps position order stable
  // and ascending, which downstream code relies on).
  offsets_.assign(num_words_ + 1, 0);
  for (const auto& [word_idx, pos] : entries) ++offsets_[word_idx + 1];
  for (std::uint32_t i = 0; i < num_words_; ++i)
    offsets_[i + 1] += offsets_[i];
  positions_.resize(entries.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [word_idx, pos] : entries)
    positions_[cursor[word_idx]++] = pos;
}

Dfa::Dfa(const WordLookup& lookup) : lookup_(&lookup) {
  if (lookup.word_length() != 3)
    throw std::invalid_argument("Dfa requires word_length == 3");
}

}  // namespace repro::blast
