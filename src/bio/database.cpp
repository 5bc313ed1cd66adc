#include "bio/database.hpp"

#include <algorithm>
#include <numeric>

namespace repro::bio {

SequenceDatabase::SequenceDatabase(std::vector<Sequence> seqs) {
  std::size_t total = 0;
  for (const auto& s : seqs) total += s.residues.size();
  buffer_.reserve(total);
  offsets_.reserve(seqs.size() + 1);
  ids_.reserve(seqs.size());
  descriptions_.reserve(seqs.size());
  for (auto& s : seqs) {
    buffer_.insert(buffer_.end(), s.residues.begin(), s.residues.end());
    offsets_.push_back(buffer_.size());
    ids_.push_back(std::move(s.id));
    descriptions_.push_back(std::move(s.description));
  }
}

std::size_t SequenceDatabase::max_length() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < size(); ++i) best = std::max(best, length(i));
  return best;
}

Sequence SequenceDatabase::sequence(std::size_t i) const {
  const auto span = residues(i);
  return Sequence{ids_[i], descriptions_[i], {span.begin(), span.end()}};
}

SequenceDatabase SequenceDatabase::sorted_by_length_desc(
    std::vector<std::uint32_t>& to_original) const {
  to_original.resize(size());
  std::iota(to_original.begin(), to_original.end(), 0u);
  std::stable_sort(to_original.begin(), to_original.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return length(a) > length(b);
                   });
  std::vector<Sequence> seqs;
  seqs.reserve(size());
  for (const auto i : to_original) seqs.push_back(sequence(i));
  return SequenceDatabase(std::move(seqs));
}

std::vector<std::pair<std::size_t, std::size_t>>
SequenceDatabase::split_blocks(std::size_t blocks) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (empty() || blocks == 0) return out;
  blocks = std::min(blocks, size());
  const std::uint64_t target =
      (total_residues() + blocks - 1) / blocks;
  std::size_t start = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    acc += length(i);
    const bool last = i + 1 == size();
    if (acc >= target || last) {
      out.emplace_back(start, i + 1);
      start = i + 1;
      acc = 0;
    }
  }
  return out;
}

}  // namespace repro::bio
