// Tests for gapped x-drop extension and traceback, including agreement
// between the score-only and traceback passes and validation of the edit
// transcript.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bio/generator.hpp"
#include "bio/pssm.hpp"
#include "blast/gapped.hpp"
#include "blast/smith_waterman.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using blast::Alignment;
using blast::SearchParams;

/// Recomputes an alignment's score from its edit transcript.
int score_from_ops(const bio::Pssm& pssm,
                   std::span<const std::uint8_t> subject,
                   const Alignment& a, const SearchParams& params) {
  int score = 0;
  std::uint32_t qi = a.q_start, si = a.s_start;
  char prev = 'M';
  for (const char op : a.ops) {
    switch (op) {
      case 'M':
        score += pssm.score(qi++, subject[si++]);
        break;
      case 'D':
        score -= (prev == 'D' ? params.gap_extend
                              : params.gap_open + params.gap_extend);
        ++qi;
        break;
      case 'I':
        score -= (prev == 'I' ? params.gap_extend
                              : params.gap_open + params.gap_extend);
        ++si;
        break;
      default:
        ADD_FAILURE() << "bad op " << op;
    }
    prev = op;
  }
  EXPECT_EQ(qi, a.q_end + 1);
  EXPECT_EQ(si, a.s_end + 1);
  return score;
}

struct Workload {
  std::vector<std::uint8_t> query;
  std::vector<std::uint8_t> subject;
  std::uint32_t qseed, sseed;
};

Workload homologous_case(std::uint64_t seed, double mutation, double indel) {
  util::Rng rng(seed);
  Workload w;
  w.query = bio::random_protein(240, rng);
  w.subject = bio::random_protein(60, rng);
  auto fragment = bio::mutate_fragment(std::span(w.query).subspan(60, 120),
                                       mutation, indel, rng);
  w.subject.insert(w.subject.begin() + 30, fragment.begin(), fragment.end());
  w.qseed = 120;  // middle of the planted region
  // Align the seed to the corresponding subject position (approximately,
  // indels shift it; the DP tolerates an off-center seed).
  w.sseed = 30 + 60;
  return w;
}

TEST(GappedExtension, ScoreOnlyMatchesTracebackScore) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto w = homologous_case(seed, 0.15, 0.03);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto gs =
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, params);
    const auto alignment = blast::gapped_traceback(pssm, w.subject, 0,
                                                   w.qseed, w.sseed, params);
    EXPECT_EQ(gs.score, alignment.score) << "seed " << seed;
    EXPECT_EQ(gs.q_start, alignment.q_start);
    EXPECT_EQ(gs.q_end, alignment.q_end);
    EXPECT_EQ(gs.s_start, alignment.s_start);
    EXPECT_EQ(gs.s_end, alignment.s_end);
  }
}

TEST(GappedExtension, TranscriptScoreMatchesReportedScore) {
  for (std::uint64_t seed = 31; seed <= 60; ++seed) {
    const auto w = homologous_case(seed, 0.2, 0.05);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto a = blast::gapped_traceback(pssm, w.subject, 0, w.qseed,
                                           w.sseed, params);
    EXPECT_EQ(a.score, score_from_ops(pssm, w.subject, a, params))
        << "seed " << seed;
  }
}

TEST(GappedExtension, SeedInsideAlignment) {
  for (std::uint64_t seed = 61; seed <= 80; ++seed) {
    const auto w = homologous_case(seed, 0.15, 0.02);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto a = blast::gapped_traceback(pssm, w.subject, 0, w.qseed,
                                           w.sseed, params);
    EXPECT_LE(a.q_start, w.qseed);
    EXPECT_GE(a.q_end, w.qseed);
    EXPECT_LE(a.s_start, w.sseed);
    EXPECT_GE(a.s_end, w.sseed);
  }
}

TEST(GappedExtension, IdenticalSequencesAlignPerfectly) {
  const auto query = bio::make_benchmark_query(120).residues;
  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const auto a = blast::gapped_traceback(pssm, query, 0, 60, 60, params);
  EXPECT_EQ(a.q_start, 0u);
  EXPECT_EQ(a.q_end, 119u);
  EXPECT_EQ(a.s_start, 0u);
  EXPECT_EQ(a.s_end, 119u);
  EXPECT_EQ(a.ops, std::string(120, 'M'));
  int self_score = 0;
  for (std::size_t i = 0; i < query.size(); ++i)
    self_score += pssm.score(i, query[i]);
  EXPECT_EQ(a.score, self_score);
}

TEST(GappedExtension, BridgesASingleGap) {
  // Two strongly conserved blocks separated by a 3-residue insertion in the
  // subject: the gapped stage must jump the gap that ungapped extension
  // cannot.
  util::Rng rng(99);
  auto query = bio::random_protein(80, rng);
  std::vector<std::uint8_t> subject = query;  // identical...
  const auto insert = bio::random_protein(3, rng);
  subject.insert(subject.begin() + 40, insert.begin(), insert.end());

  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const auto a = blast::gapped_traceback(pssm, subject, 0, 20, 20, params);
  EXPECT_EQ(a.q_start, 0u);
  EXPECT_EQ(a.q_end, 79u);
  EXPECT_EQ(std::count(a.ops.begin(), a.ops.end(), 'I'), 3);
  EXPECT_EQ(std::count(a.ops.begin(), a.ops.end(), 'M'), 80);
}

TEST(GappedExtension, GapCostsAffine) {
  // A 1-residue gap costs open+extend = 12; a 3-residue gap costs 14 — the
  // alignment of the previous test must reflect affine costs exactly.
  util::Rng rng(101);
  auto query = bio::random_protein(60, rng);
  std::vector<std::uint8_t> subject = query;
  const auto insert = bio::random_protein(3, rng);
  subject.insert(subject.begin() + 30, insert.begin(), insert.end());

  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const auto a = blast::gapped_traceback(pssm, subject, 0, 10, 10, params);
  int identity_score = 0;
  for (std::size_t i = 0; i < query.size(); ++i)
    identity_score += pssm.score(i, query[i]);
  // Inserted residues may accidentally extend a match; at minimum the score
  // is the identity score minus the affine gap cost.
  EXPECT_GE(a.score, identity_score - (params.gap_open +
                                       3 * params.gap_extend));
}

TEST(GappedExtension, LargerXdropNeverLowersScore) {
  for (std::uint64_t seed = 81; seed <= 95; ++seed) {
    const auto w = homologous_case(seed, 0.25, 0.05);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams small;
    small.gapped_xdrop = 10;
    SearchParams big;
    big.gapped_xdrop = 60;
    EXPECT_LE(
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, small).score,
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, big).score);
  }
}

TEST(GappedExtension, GappedScoreAtLeastUngappedDiagonalScore) {
  // With gaps allowed, the optimum can only improve on the pure-diagonal
  // path through the same seed.
  for (std::uint64_t seed = 120; seed <= 140; ++seed) {
    const auto w = homologous_case(seed, 0.2, 0.0);
    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto g =
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, params);
    // Diagonal-only score through the seed with the same x-drop rule is a
    // lower bound; the seed pair alone is a weaker but simpler bound.
    EXPECT_GE(g.score, pssm.score(w.qseed, w.subject[w.sseed]));
  }
}

TEST(GappedExtension, SeedAtSequenceEdges) {
  const auto query = bio::make_benchmark_query(50).residues;
  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  // Top-left corner.
  auto a = blast::gapped_traceback(pssm, query, 0, 0, 0, params);
  EXPECT_EQ(a.q_start, 0u);
  EXPECT_EQ(a.s_start, 0u);
  // Bottom-right corner.
  a = blast::gapped_traceback(pssm, query, 0, 49, 49, params);
  EXPECT_EQ(a.q_end, 49u);
  EXPECT_EQ(a.s_end, 49u);
}

TEST(GappedExtension, SingleResidueSubject) {
  const auto query = bio::make_benchmark_query(30).residues;
  bio::Pssm pssm(query, bio::Blosum62::instance());
  SearchParams params;
  const std::vector<std::uint8_t> subject = {query[10]};
  const auto a = blast::gapped_traceback(pssm, subject, 0, 10, 0, params);
  EXPECT_EQ(a.s_start, 0u);
  EXPECT_EQ(a.s_end, 0u);
  EXPECT_GE(a.score, pssm.score(10, query[10]));
}

TEST(GappedExtension, PropertySweep) {
  // 200 seeded cases, alternating planted homologs and unrelated random
  // pairs, with seeds anywhere including the first and last residue of
  // either sequence. Each must rescore from its transcript, agree between
  // the score and traceback passes, and never beat the exact optimum.
  for (std::uint64_t seed = 1000; seed < 1200; ++seed) {
    util::Rng rng(seed);
    Workload w;
    if (seed % 2 == 0) {
      w = homologous_case(seed, 0.1 + 0.05 * static_cast<double>(seed % 4),
                          0.02 * static_cast<double>(seed % 3));
    } else {
      w.query = bio::random_protein(
          static_cast<std::size_t>(rng.range(1, 160)), rng);
      w.subject = bio::random_protein(
          static_cast<std::size_t>(rng.range(1, 160)), rng);
    }
    const auto pick = [&rng](std::size_t len, std::uint64_t which) {
      const auto last = static_cast<std::uint32_t>(len - 1);
      switch (which) {
        case 0: return std::uint32_t{0};
        case 1: return last;
        default:
          return static_cast<std::uint32_t>(rng.below(last + 1));
      }
    };
    // Homologs keep their planted seed in two of every three cases.
    if (seed % 2 != 0 || seed % 3 == 0) {
      w.qseed = pick(w.query.size(), (seed / 2) % 3);
      w.sseed = pick(w.subject.size(), (seed / 6) % 3);
    }

    bio::Pssm pssm(w.query, bio::Blosum62::instance());
    SearchParams params;
    const auto gs =
        blast::gapped_score(pssm, w.subject, w.qseed, w.sseed, params);
    const auto a = blast::gapped_traceback(pssm, w.subject, 0, w.qseed,
                                           w.sseed, params);
    SCOPED_TRACE("seed " + std::to_string(seed) + " qseed " +
                 std::to_string(w.qseed) + " sseed " +
                 std::to_string(w.sseed));
    EXPECT_EQ(a.score, score_from_ops(pssm, w.subject, a, params));
    EXPECT_EQ(gs.score, a.score);
    EXPECT_EQ(gs.q_start, a.q_start);
    EXPECT_EQ(gs.q_end, a.q_end);
    EXPECT_EQ(gs.s_start, a.s_start);
    EXPECT_EQ(gs.s_end, a.s_end);
    EXPECT_LE(a.q_start, w.qseed);
    EXPECT_GE(a.q_end, w.qseed);
    EXPECT_LE(a.s_start, w.sseed);
    EXPECT_GE(a.s_end, w.sseed);
    EXPECT_LE(a.score, blast::smith_waterman_score(pssm, w.subject, params));
  }
}

}  // namespace
}  // namespace repro
