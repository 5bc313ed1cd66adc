#include "blast/gapped.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <string>
#include <vector>

namespace repro::blast {

namespace {

constexpr int kNegInf = INT_MIN / 4;

// Direction byte layout for traceback.
enum HSource : std::uint8_t { kDiag = 0, kFromE = 1, kFromF = 2, kStart = 3 };
constexpr std::uint8_t kESrcExtend = 1 << 2;  // E came from E (else from H)
constexpr std::uint8_t kFSrcExtend = 1 << 3;  // F came from F (else from H)

struct HalfResult {
  int score = 0;
  std::uint32_t q_reach = 0;  ///< query residues consumed past the seed
  std::uint32_t s_reach = 0;  ///< subject residues consumed past the seed
  std::string ops;            ///< in sequence order away from the seed
};

/// Reusable per-thread scratch to avoid reallocating DP rows per seed.
struct Scratch {
  std::vector<int> h_prev, f_prev, h_cur, f_cur;
  std::vector<std::uint8_t> dirs;          // all rows, flattened
  std::vector<int> row_lo, row_hi;         // per-row band
  std::vector<std::size_t> row_offset;     // row start in dirs
};

thread_local Scratch tls_scratch;

/// Substitution scores walking away from a seed: Step = +1 for the right
/// half, -1 for the left. row(i) fetches the PSSM column of the i-th query
/// residue away from the seed once; the returned row scores it against the
/// j-th subject residue away from the seed (both 1-based).
template <int Step>
struct SeedScores {
  const bio::Score* column_at_seed;  ///< PSSM column of the seed position
  const std::uint8_t* subject_at_seed;

  struct Row {
    const bio::Score* column;
    const std::uint8_t* subject_at_seed;
    int operator()(int j) const { return column[subject_at_seed[Step * j]]; }
  };

  [[nodiscard]] Row row(int i) const {
    return {column_at_seed + Step * i * bio::kPaddedMatrixDim,
            subject_at_seed};
  }
};

/// One x-drop half extension; scores.row(i)(j) gives the substitution score
/// of the i-th query residue vs the j-th subject residue away from the seed
/// (both 1-based). q_avail/s_avail bound i/j. The score pass and the
/// traceback pass share this body, so they provably agree; the score pass
/// compiles without the direction bytes.
template <bool Traceback, class Scores>
HalfResult extend_half(const Scores& scores, std::size_t q_avail,
                       std::size_t s_avail, const SearchParams& params) {
  HalfResult result;
  if (q_avail == 0 && s_avail == 0) return result;

  const int x = params.gapped_xdrop;
  const int open_cost = params.gap_open + params.gap_extend;
  const int extend_cost = params.gap_extend;
  const int s_last = static_cast<int>(s_avail);

  Scratch& sc = tls_scratch;
  const std::size_t width = s_avail + 2;
  if (sc.h_prev.size() < width) {
    sc.h_prev.resize(width);
    sc.f_prev.resize(width);
    sc.h_cur.resize(width);
    sc.f_cur.resize(width);
  }
  // Rows swap by pointer; which buffer holds which row carries no state
  // across calls, since row 0 is rewritten below.
  int* h_prev = sc.h_prev.data();
  int* f_prev = sc.f_prev.data();
  int* h_cur = sc.h_cur.data();
  int* f_cur = sc.f_cur.data();
  if constexpr (Traceback) {
    sc.dirs.clear();
    sc.row_lo.clear();
    sc.row_hi.clear();
    sc.row_offset.clear();
  }

  int best = 0, best_i = 0, best_j = 0;

  // Row 0: leading gap in the query (consuming subject residues).
  int lo = 0, hi = 0;
  h_prev[0] = 0;
  f_prev[0] = kNegInf;
  if constexpr (Traceback) {
    sc.row_lo.push_back(0);
    sc.row_offset.push_back(0);
    sc.dirs.push_back(kStart);
  }
  for (int j = 1; j <= s_last; ++j) {
    const int val = -(open_cost + (j - 1) * extend_cost);
    if (val < best - x) break;
    h_prev[j] = val;
    f_prev[j] = kNegInf;
    hi = j;
    if constexpr (Traceback)
      sc.dirs.push_back(static_cast<std::uint8_t>(
          kFromE | (j > 1 ? kESrcExtend : 0)));
  }
  if constexpr (Traceback) sc.row_hi.push_back(hi);

  // Subsequent rows.
  for (int i = 1; i <= static_cast<int>(q_avail); ++i) {
    const int prev_lo = lo, prev_hi = hi;
    int new_lo = -1, new_hi = -1;
    int e = kNegInf;         // E(i, j) running along the row
    int h_left = kNegInf;    // H(i, j-1)
    const std::size_t dir_base = Traceback ? sc.dirs.size() : 0;
    const auto row = scores.row(i);

    int j = prev_lo;  // leftmost cell this row can populate
    if (j == 0) {
      // Leading gap in the subject: H(i,0) via the F chain only.
      const int h0 = -(open_cost + (i - 1) * extend_cost);
      if (h0 >= best - x) {
        h_cur[0] = h0;
        f_cur[0] = h0;
        new_lo = 0;
        new_hi = 0;
        if constexpr (Traceback)
          sc.dirs.push_back(
              static_cast<std::uint8_t>(kFromF | (i > 1 ? kFSrcExtend : 0)));
        h_left = h0;
      }
      j = 1;
    }

    for (; j <= s_last; ++j) {
      // Candidate values.
      int h_diag = kNegInf;
      if (j - 1 >= prev_lo && j - 1 <= prev_hi)
        h_diag = h_prev[j - 1] + row(j);

      const int e_open = h_left == kNegInf ? kNegInf : h_left - open_cost;
      const int e_ext = e == kNegInf ? kNegInf : e - extend_cost;
      const int e_val = std::max(e_open, e_ext);

      int f_open = kNegInf, f_ext = kNegInf;
      if (j >= prev_lo && j <= prev_hi) {
        f_open = h_prev[j] - open_cost;
        if (f_prev[j] != kNegInf) f_ext = f_prev[j] - extend_cost;
      }
      const int f_val = std::max(f_open, f_ext);

      const int h = std::max({h_diag, e_val, f_val});
      std::uint8_t dir = 0;
      if constexpr (Traceback) {
        if (h == kNegInf) {
          dir = kStart;
        } else if (h == h_diag) {
          dir = kDiag;
        } else if (h == e_val) {
          dir = kFromE;
        } else {
          dir = kFromF;
        }
        if (e_val != kNegInf && e_val == e_ext) dir |= kESrcExtend;
        if (f_val != kNegInf && f_val == f_ext) dir |= kFSrcExtend;
      }

      const bool alive =
          (h != kNegInf && h >= best - x) ||
          (e_val != kNegInf && e_val >= best - x) ||
          (f_val != kNegInf && f_val >= best - x);

      if (!alive) {
        if (new_lo < 0) {
          // Still hunting for the first live cell of this row.
          h_left = kNegInf;
          e = kNegInf;
          continue;
        }
        // Past the live region: nothing to the right can revive once we
        // are beyond the previous row's band (no diag/F feed) and the E
        // chain is dead.
        if (j > prev_hi + 1) break;
        h_left = kNegInf;
        e = e_val;
        // Record a dead cell so traceback indexing stays dense.
        h_cur[j] = kNegInf;
        f_cur[j] = kNegInf;
        new_hi = j;
        if constexpr (Traceback) sc.dirs.push_back(dir);
        continue;
      }

      if (new_lo < 0) new_lo = j;
      new_hi = j;
      h_cur[j] = h;
      f_cur[j] = f_val;
      if constexpr (Traceback) sc.dirs.push_back(dir);
      h_left = h;
      e = e_val;

      if (h > best) {
        best = h;
        best_i = i;
        best_j = j;
      }
    }

    if (new_lo < 0) break;  // row empty: extension exhausted
    lo = new_lo;
    hi = new_hi;
    if constexpr (Traceback) {
      sc.row_lo.push_back(lo);
      sc.row_hi.push_back(hi);
      // Dead prefix cells were skipped and dead suffix cells recorded, so
      // this row's bytes start at dir_base and cover [lo, hi].
      sc.row_offset.push_back(dir_base);
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }

  result.score = best;
  result.q_reach = static_cast<std::uint32_t>(best_i);
  result.s_reach = static_cast<std::uint32_t>(best_j);

  if (Traceback && (best_i > 0 || best_j > 0)) {
    // Walk direction bytes from (best_i, best_j) back to (0, 0).
    auto dir_at = [&](int i, int j) -> std::uint8_t {
      const std::size_t row = static_cast<std::size_t>(i);
      assert(row < sc.row_lo.size());
      assert(j >= sc.row_lo[row] && j <= sc.row_hi[row]);
      return sc.dirs[sc.row_offset[row] +
                     static_cast<std::size_t>(j - sc.row_lo[row])];
    };
    std::string ops;
    int i = best_i, j = best_j;
    enum class State { H, E, F } state = State::H;
    while (i > 0 || j > 0) {
      const std::uint8_t d = dir_at(i, j);
      switch (state) {
        case State::H:
          switch (d & 0x3) {
            case kDiag:
              ops.push_back('M');
              --i;
              --j;
              break;
            case kFromE:
              state = State::E;
              break;
            case kFromF:
              state = State::F;
              break;
            default:
              assert(false && "traceback hit a start cell prematurely");
              i = 0;
              j = 0;
              break;
          }
          break;
        case State::E:
          ops.push_back('I');
          state = (d & kESrcExtend) ? State::E : State::H;
          --j;
          break;
        case State::F:
          ops.push_back('D');
          state = (d & kFSrcExtend) ? State::F : State::H;
          --i;
          break;
      }
    }
    // Emitted far-end-first; callers want seed-outward order reversed into
    // sequence order, which they assemble themselves. Keep far-first here.
    result.ops = std::move(ops);
  }
  return result;
}

/// Both half extensions from one seed; seed_score is the seed pair's own.
struct Extension {
  int seed_score = 0;
  HalfResult left, right;
};

template <bool Traceback>
Extension extend_seed(const bio::Pssm& pssm,
                      std::span<const std::uint8_t> subject,
                      std::uint32_t qseed, std::uint32_t sseed,
                      const SearchParams& params) {
  const auto qlen = static_cast<std::uint32_t>(pssm.query_length());
  const auto slen = static_cast<std::uint32_t>(subject.size());
  assert(qseed < qlen && sseed < slen);
  Extension ext;
  ext.seed_score = pssm.score(qseed, subject[sseed]);
  const bio::Score* column = pssm.column(qseed);
  const std::uint8_t* residue = subject.data() + sseed;
  ext.right = extend_half<Traceback>(SeedScores<+1>{column, residue},
                                     qlen - 1 - qseed, slen - 1 - sseed,
                                     params);
  ext.left = extend_half<Traceback>(SeedScores<-1>{column, residue}, qseed,
                                    sseed, params);
  return ext;
}

}  // namespace

GappedScore gapped_score(const bio::Pssm& pssm,
                         std::span<const std::uint8_t> subject,
                         std::uint32_t qseed, std::uint32_t sseed,
                         const SearchParams& params) {
  const Extension ext =
      extend_seed</*Traceback=*/false>(pssm, subject, qseed, sseed, params);
  GappedScore out;
  out.score = ext.seed_score + ext.left.score + ext.right.score;
  out.q_start = qseed - ext.left.q_reach;
  out.s_start = sseed - ext.left.s_reach;
  out.q_end = qseed + ext.right.q_reach;
  out.s_end = sseed + ext.right.s_reach;
  return out;
}

Alignment gapped_traceback(const bio::Pssm& pssm,
                           std::span<const std::uint8_t> subject,
                           std::uint32_t seq_index, std::uint32_t qseed,
                           std::uint32_t sseed, const SearchParams& params) {
  const Extension ext =
      extend_seed</*Traceback=*/true>(pssm, subject, qseed, sseed, params);
  Alignment alignment;
  alignment.seq = seq_index;
  alignment.score = ext.seed_score + ext.left.score + ext.right.score;
  alignment.q_start = qseed - ext.left.q_reach;
  alignment.s_start = sseed - ext.left.s_reach;
  alignment.q_end = qseed + ext.right.q_reach;
  alignment.s_end = sseed + ext.right.s_reach;
  // Both halves emit ops far-end first. For the left half the far end is
  // the leftmost residue, so its ops are already in sequence order; the
  // right half's are reversed into seed->right order.
  alignment.ops.reserve(ext.left.ops.size() + 1 + ext.right.ops.size());
  alignment.ops += ext.left.ops;
  alignment.ops.push_back('M');
  alignment.ops.append(ext.right.ops.rbegin(), ext.right.ops.rend());
  return alignment;
}

}  // namespace repro::blast
