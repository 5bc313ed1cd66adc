// The subject-sequence database, stored GPU-style: one concatenated residue
// buffer plus per-sequence offsets, so device kernels index it with plain
// pointer arithmetic and memory-coalescing behaviour is faithful.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bio/sequence.hpp"

namespace repro::bio {

class SequenceDatabase {
 public:
  SequenceDatabase() = default;
  explicit SequenceDatabase(std::vector<Sequence> seqs);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] std::span<const std::uint8_t> residues(std::size_t i) const {
    return {buffer_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::size_t length(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }
  [[nodiscard]] const std::string& id(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] const std::string& description(std::size_t i) const {
    return descriptions_[i];
  }

  /// The flat concatenated residue buffer (device view).
  [[nodiscard]] std::span<const std::uint8_t> buffer() const {
    return buffer_;
  }
  /// size()+1 offsets into buffer(); sequence i spans
  /// [offsets()[i], offsets()[i+1]).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const {
    return offsets_;
  }

  [[nodiscard]] std::uint64_t total_residues() const {
    return buffer_.size();
  }
  [[nodiscard]] double average_length() const {
    return empty() ? 0.0
                   : static_cast<double>(total_residues()) /
                         static_cast<double>(size());
  }
  [[nodiscard]] std::size_t max_length() const;

  /// Reconstructs a Sequence record (copies the residues).
  [[nodiscard]] Sequence sequence(std::size_t i) const;

  /// A new database containing the same sequences ordered by descending
  /// length (stable) — the load-balancing preprocessing step CUDA-BLASTP
  /// applies. Fills `to_original[k]` with the index in this database of
  /// sorted sequence k, so results map back to original ids.
  [[nodiscard]] SequenceDatabase sorted_by_length_desc(
      std::vector<std::uint32_t>& to_original) const;

  /// Splits the database into `blocks` contiguous chunks of roughly equal
  /// residue volume; returns [start, end) sequence-index pairs. Used by the
  /// CPU/GPU pipeline (paper Fig. 12).
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  split_blocks(std::size_t blocks) const;

 private:
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint64_t> offsets_{0};
  std::vector<std::string> ids_;
  std::vector<std::string> descriptions_;
};

}  // namespace repro::bio
