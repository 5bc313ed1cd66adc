// Position-specific scoring matrix (PSS matrix) built from the query.
//
// As in the paper (Fig. 2b, §3.5): one column per query position, 32 rows
// (the padded alphabet) of 2-byte scores, i.e. 64 bytes per column. Device
// kernels index it column-major — score(pos, residue) is a single load —
// which is exactly why the paper prefers it to the scoring matrix for short
// queries and why it stops fitting in 48 kB shared memory past length 768.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/blosum.hpp"

namespace repro::bio {

class Pssm {
 public:
  /// Builds the PSSM for a query from a substitution matrix.
  Pssm(std::span<const std::uint8_t> query, const Blosum62& matrix);

  [[nodiscard]] std::size_t query_length() const { return length_; }

  /// Score of aligning `residue` against query position `pos`.
  [[nodiscard]] Score score(std::size_t pos, std::uint8_t residue) const {
    return data_[pos * kPaddedMatrixDim + residue];
  }

  /// Column of query position `pos`: column(pos)[residue] == score(pos,
  /// residue). Lets a DP fetch a row's column once instead of per cell.
  [[nodiscard]] const Score* column(std::size_t pos) const {
    return data_.data() + pos * kPaddedMatrixDim;
  }

  /// Raw column-major device buffer: column `pos` occupies the 32 scores at
  /// [pos*32, pos*32+32).
  [[nodiscard]] std::span<const Score> device_buffer() const { return data_; }

  /// Size in bytes of the device buffer — the quantity compared against the
  /// 48 kB shared-memory budget (paper §3.5: query longer than 768 residues
  /// no longer fits).
  [[nodiscard]] std::size_t device_bytes() const {
    return data_.size() * sizeof(Score);
  }

 private:
  std::size_t length_;
  std::vector<Score> data_;
};

}  // namespace repro::bio
