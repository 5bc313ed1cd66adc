// Tests for src/bio: alphabet, BLOSUM62, FASTA, database, PSSM,
// Karlin-Altschul statistics, and the synthetic database generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/rng.hpp"

#include "bio/alphabet.hpp"
#include "bio/blosum.hpp"
#include "bio/database.hpp"
#include "bio/fasta.hpp"
#include "bio/generator.hpp"
#include "bio/karlin.hpp"
#include "bio/pssm.hpp"
#include "util/stats.hpp"

namespace repro {
namespace {

TEST(Alphabet, RoundTripAllLetters) {
  for (int i = 0; i < bio::kAlphabetSize; ++i) {
    const char c = bio::decode_letter(static_cast<std::uint8_t>(i));
    const auto code = bio::encode_letter(c);
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(*code, i);
  }
}

TEST(Alphabet, CaseInsensitive) {
  EXPECT_EQ(bio::encode_letter('a'), bio::encode_letter('A'));
  EXPECT_EQ(bio::encode_letter('w'), bio::encode_letter('W'));
}

TEST(Alphabet, RareResiduesMapToX) {
  EXPECT_EQ(bio::encode_letter('U'), bio::kCodeX);
  EXPECT_EQ(bio::encode_letter('O'), bio::kCodeX);
  EXPECT_EQ(bio::encode_letter('J'), bio::kCodeX);
}

TEST(Alphabet, RejectsNonResidues) {
  EXPECT_FALSE(bio::encode_letter('1').has_value());
  EXPECT_FALSE(bio::encode_letter('-').has_value());
  EXPECT_FALSE(bio::encode_letter(' ').has_value());
}

TEST(Alphabet, EncodeStringSkipsWhitespaceThrowsOnJunk) {
  const auto v = bio::encode_string("AC D\nE");
  EXPECT_EQ(bio::decode_string(v), "ACDE");
  EXPECT_THROW((void)bio::encode_string("AC9"), std::invalid_argument);
}

TEST(Alphabet, BackgroundFrequenciesSumToOne) {
  const auto& f = bio::background_frequencies();
  double sum = 0;
  for (int i = 0; i < bio::kNumRealAminoAcids; ++i) sum += f[i];
  EXPECT_NEAR(sum, 1.0, 1e-3);
  for (int i = bio::kNumRealAminoAcids; i < bio::kAlphabetSize; ++i)
    EXPECT_EQ(f[i], 0.0);
}

TEST(Blosum62, KnownValues) {
  const auto& m = bio::Blosum62::instance();
  const auto code = [](char c) { return *bio::encode_letter(c); };
  EXPECT_EQ(m.score(code('W'), code('W')), 11);
  EXPECT_EQ(m.score(code('A'), code('A')), 4);
  EXPECT_EQ(m.score(code('X'), code('Y')), -1);
  EXPECT_EQ(m.score(code('E'), code('D')), 2);
  EXPECT_EQ(m.score(code('C'), code('C')), 9);
  EXPECT_EQ(m.score(code('I'), code('L')), 2);
  EXPECT_EQ(m.max_score(), 11);
}

TEST(Blosum62, Symmetric) {
  const auto& m = bio::Blosum62::instance();
  for (int a = 0; a < bio::kAlphabetSize; ++a)
    for (int b = 0; b < bio::kAlphabetSize; ++b)
      EXPECT_EQ(m.score(static_cast<std::uint8_t>(a),
                        static_cast<std::uint8_t>(b)),
                m.score(static_cast<std::uint8_t>(b),
                        static_cast<std::uint8_t>(a)));
}

TEST(Blosum62, PaddedLayoutMatchesAndIs2kB) {
  const auto& m = bio::Blosum62::instance();
  EXPECT_EQ(m.padded().size() * sizeof(bio::Score), 2048u);  // paper §3.5
  for (int a = 0; a < bio::kAlphabetSize; ++a)
    for (int b = 0; b < bio::kAlphabetSize; ++b)
      EXPECT_EQ(m.padded()[static_cast<std::size_t>(a) * 32 +
                           static_cast<std::size_t>(b)],
                m.score(static_cast<std::uint8_t>(a),
                        static_cast<std::uint8_t>(b)));
}

TEST(Fasta, ParsesMultipleRecords) {
  const std::string text =
      ">seq1 first protein\nACDEF\nGHIKL\n>seq2\nMNPQR\n";
  const auto records = bio::read_fasta_string(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "seq1");
  EXPECT_EQ(records[0].description, "first protein");
  EXPECT_EQ(bio::decode_string(records[0].residues), "ACDEFGHIKL");
  EXPECT_EQ(records[1].id, "seq2");
  EXPECT_TRUE(records[1].description.empty());
}

TEST(Fasta, RejectsDataBeforeHeader) {
  EXPECT_THROW((void)bio::read_fasta_string("ACDEF\n"),
               std::invalid_argument);
}

TEST(Fasta, RejectsBadResidue) {
  EXPECT_THROW((void)bio::read_fasta_string(">s\nAC1\n"),
               std::invalid_argument);
}

TEST(Fasta, RoundTripThroughWriter) {
  bio::Sequence s1{"id1", "desc here", bio::encode_string("ACDEFGHIKLMNP")};
  bio::Sequence s2{"id2", "", bio::encode_string("WYV")};
  std::ostringstream out;
  bio::write_fasta(out, {s1, s2}, 5);
  const auto back = bio::read_fasta_string(out.str());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].residues, s1.residues);
  EXPECT_EQ(back[0].description, "desc here");
  EXPECT_EQ(back[1].residues, s2.residues);
}

TEST(Fasta, StrictRejectsEmptyId) {
  EXPECT_THROW((void)bio::read_fasta_string("> no id\nACDEF\n"),
               std::invalid_argument);
  EXPECT_THROW((void)bio::read_fasta_string(">\nACDEF\n"),
               std::invalid_argument);
}

TEST(Fasta, LenientMapsUnknownResiduesToX) {
  bio::FastaWarnings warnings;
  const auto records = bio::read_fasta_string(
      ">s\nAC1D?F\n", bio::FastaPolicy::kLenient, &warnings);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(bio::decode_string(records[0].residues), "ACXDXF");
  EXPECT_EQ(warnings.unknown_residues, 2u);
  EXPECT_EQ(warnings.total(), 2u);
}

TEST(Fasta, LenientSkipsEmptyRecords) {
  bio::FastaWarnings warnings;
  const auto records = bio::read_fasta_string(
      ">empty1\n>keep\nACD\n>empty2\n", bio::FastaPolicy::kLenient,
      &warnings);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, "keep");
  EXPECT_EQ(warnings.empty_records_skipped, 2u);
}

TEST(Fasta, LenientCountsEmptyIds) {
  bio::FastaWarnings warnings;
  const auto records = bio::read_fasta_string(
      "> anonymous\nACD\n", bio::FastaPolicy::kLenient, &warnings);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].id.empty());
  EXPECT_EQ(warnings.empty_ids, 1u);
}

TEST(Fasta, LenientStillRejectsDataBeforeHeader) {
  // Structural corruption is not residue noise: both policies throw.
  EXPECT_THROW(
      (void)bio::read_fasta_string("ACDEF\n", bio::FastaPolicy::kLenient),
      std::invalid_argument);
}

TEST(Fasta, CleanInputIdenticalUnderBothPolicies) {
  const std::string text = ">seq1 first\nACDEF\n>seq2\nMNPQR\n";
  bio::FastaWarnings warnings;
  const auto strict = bio::read_fasta_string(text);
  const auto lenient =
      bio::read_fasta_string(text, bio::FastaPolicy::kLenient, &warnings);
  ASSERT_EQ(strict.size(), lenient.size());
  for (std::size_t i = 0; i < strict.size(); ++i) {
    EXPECT_EQ(strict[i].id, lenient[i].id);
    EXPECT_EQ(strict[i].residues, lenient[i].residues);
  }
  EXPECT_EQ(warnings.total(), 0u);
}

TEST(Fasta, HandlesCrLf) {
  const auto records = bio::read_fasta_string(">s x\r\nACD\r\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].description, "x");
  EXPECT_EQ(bio::decode_string(records[0].residues), "ACD");
}

bio::SequenceDatabase tiny_db() {
  std::vector<bio::Sequence> seqs;
  seqs.push_back({"a", "", bio::encode_string("ACDEF")});
  seqs.push_back({"b", "", bio::encode_string("GG")});
  seqs.push_back({"c", "", bio::encode_string("MNPQRSTVWY")});
  return bio::SequenceDatabase(std::move(seqs));
}

TEST(Database, OffsetsAndSpans) {
  const auto db = tiny_db();
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.total_residues(), 17u);
  EXPECT_EQ(db.length(0), 5u);
  EXPECT_EQ(db.length(1), 2u);
  EXPECT_EQ(db.length(2), 10u);
  EXPECT_EQ(db.max_length(), 10u);
  EXPECT_EQ(bio::decode_string({db.residues(1).begin(),
                                db.residues(1).end()}),
            "GG");
  EXPECT_NEAR(db.average_length(), 17.0 / 3.0, 1e-12);
}

TEST(Database, SortedByLengthDesc) {
  const auto db = tiny_db();
  std::vector<std::uint32_t> to_original;
  const auto sorted = db.sorted_by_length_desc(to_original);
  EXPECT_EQ(sorted.length(0), 10u);
  EXPECT_EQ(sorted.length(1), 5u);
  EXPECT_EQ(sorted.length(2), 2u);
  EXPECT_EQ(sorted.id(0), "c");  // identity preserved
  // The permutation maps every sorted sequence back to its original.
  ASSERT_EQ(to_original.size(), db.size());
  std::vector<bool> seen(db.size(), false);
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const std::uint32_t i = to_original[k];
    ASSERT_LT(i, db.size());
    EXPECT_FALSE(seen[i]) << "original " << i << " appears twice";
    seen[i] = true;
    EXPECT_EQ(sorted.id(k), db.id(i));
    EXPECT_TRUE(std::ranges::equal(sorted.residues(k), db.residues(i)));
  }
}

TEST(Database, SortedByLengthDescIsStable) {
  // Equal lengths keep their original relative order.
  const bio::SequenceDatabase db(
      {{"a", "", bio::encode_string("AAA")},
       {"b", "", bio::encode_string("CCCCC")},
       {"c", "", bio::encode_string("GGG")}});
  std::vector<std::uint32_t> to_original;
  const auto sorted = db.sorted_by_length_desc(to_original);
  EXPECT_EQ(to_original, (std::vector<std::uint32_t>{1, 0, 2}));
  EXPECT_EQ(sorted.id(1), "a");
  EXPECT_EQ(sorted.id(2), "c");
}

TEST(Database, SplitBlocksCoversAllSequences) {
  const auto db = tiny_db();
  for (std::size_t blocks = 1; blocks <= 5; ++blocks) {
    const auto spans = db.split_blocks(blocks);
    ASSERT_FALSE(spans.empty());
    std::size_t next = 0;
    for (const auto& [lo, hi] : spans) {
      EXPECT_EQ(lo, next);
      EXPECT_LT(lo, hi);
      next = hi;
    }
    EXPECT_EQ(next, db.size());
  }
}

TEST(Database, EmptyDatabase) {
  bio::SequenceDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.total_residues(), 0u);
  EXPECT_TRUE(db.split_blocks(4).empty());
}

TEST(Pssm, MatchesBlosumRows) {
  const auto query = bio::encode_string("ACDWY");
  bio::Pssm pssm(query, bio::Blosum62::instance());
  EXPECT_EQ(pssm.query_length(), 5u);
  const auto& m = bio::Blosum62::instance();
  for (std::size_t pos = 0; pos < query.size(); ++pos)
    for (int aa = 0; aa < bio::kAlphabetSize; ++aa)
      EXPECT_EQ(pssm.score(pos, static_cast<std::uint8_t>(aa)),
                m.score(query[pos], static_cast<std::uint8_t>(aa)));
}

TEST(Pssm, DeviceBytesIs64PerColumn) {
  const auto query = bio::encode_string("ACDWYACDWY");
  bio::Pssm pssm(query, bio::Blosum62::instance());
  EXPECT_EQ(pssm.device_bytes(), 10u * 64u);  // paper §3.5
}

TEST(Pssm, SharedMemoryCrossoverNear768) {
  // Paper §3.5: 48 kB shared memory cannot hold the PSSM past length 768.
  const auto short_q = bio::random_protein(768, *[] {
    static util::Rng rng(1);
    return &rng;
  }());
  bio::Pssm fits(short_q, bio::Blosum62::instance());
  EXPECT_LE(fits.device_bytes(), 48u * 1024u);
  const auto long_q = bio::random_protein(769, *[] {
    static util::Rng rng(2);
    return &rng;
  }());
  bio::Pssm overflows(long_q, bio::Blosum62::instance());
  EXPECT_GT(overflows.device_bytes(), 48u * 1024u);
}

TEST(Karlin, SolvedLambdaMatchesPublishedBlosum62) {
  const double lambda = bio::solve_ungapped_lambda(
      bio::Blosum62::instance(), bio::background_frequencies());
  EXPECT_NEAR(lambda, 0.3176, 0.01);  // Karlin-Altschul 1990 / NCBI value
}

TEST(Karlin, EntropyPositiveAndNearPublished) {
  const double lambda = bio::solve_ungapped_lambda(
      bio::Blosum62::instance(), bio::background_frequencies());
  const double h = bio::relative_entropy(bio::Blosum62::instance(),
                                         bio::background_frequencies(),
                                         lambda);
  EXPECT_NEAR(h, 0.40, 0.05);
}

TEST(Karlin, EvalueDecreasesWithScore) {
  bio::EvalueCalculator calc(bio::blosum62_gapped_11_1(), 500, 1000000, 3000);
  double prev = calc.evalue(20);
  for (int s = 21; s < 100; ++s) {
    const double e = calc.evalue(s);
    EXPECT_LT(e, prev);
    prev = e;
  }
}

TEST(Karlin, MinSignificantScoreIsTight) {
  bio::EvalueCalculator calc(bio::blosum62_gapped_11_1(), 500, 1000000, 3000);
  const int s = calc.min_significant_score(10.0);
  EXPECT_LE(calc.evalue(s), 10.0);
  EXPECT_GT(calc.evalue(s - 1), 10.0);
}

TEST(Karlin, BitScoreLinearInRawScore) {
  bio::EvalueCalculator calc(bio::blosum62_gapped_11_1(), 500, 1000000, 3000);
  const double d1 = calc.bit_score(50) - calc.bit_score(40);
  const double d2 = calc.bit_score(90) - calc.bit_score(80);
  EXPECT_NEAR(d1, d2, 1e-9);
  EXPECT_NEAR(d1, 10 * 0.267 / std::log(2.0), 1e-9);
}

TEST(Generator, LengthDistributionMatchesProfile) {
  auto profile = bio::DatabaseProfile::swissprot_like(4000);
  bio::DatabaseGenerator gen(profile, 99);
  const auto db = gen.generate();
  EXPECT_EQ(db.size(), 4000u);
  EXPECT_NEAR(db.average_length(), 370.0, 25.0);
}

TEST(Generator, EnvNrProfileShorter) {
  bio::DatabaseGenerator gen(bio::DatabaseProfile::env_nr_like(4000), 17);
  const auto db = gen.generate();
  EXPECT_NEAR(db.average_length(), 200.0, 15.0);
}

TEST(Generator, DeterministicForSeed) {
  bio::DatabaseGenerator a(bio::DatabaseProfile::swissprot_like(50), 5);
  bio::DatabaseGenerator b(bio::DatabaseProfile::swissprot_like(50), 5);
  const auto da = a.generate();
  const auto db = b.generate();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    const auto ra = da.residues(i);
    const auto rb = db.residues(i);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
  }
}

TEST(Generator, PlantsHomologsWhenQueryGiven) {
  auto profile = bio::DatabaseProfile::swissprot_like(500);
  profile.homolog_fraction = 0.2;
  bio::DatabaseGenerator gen(profile, 3);
  const auto query = bio::make_benchmark_query(200).residues;
  const auto db = gen.generate(query);
  std::size_t planted = 0;
  for (std::size_t i = 0; i < db.size(); ++i)
    if (db.description(i) == "planted_homolog") ++planted;
  EXPECT_GT(planted, 50u);
  EXPECT_LT(planted, 180u);
}

TEST(Generator, MutateFragmentPreservesMostResidues) {
  util::Rng rng(7);
  const auto frag = bio::random_protein(1000, rng);
  const auto mutated = bio::mutate_fragment(frag, 0.2, 0.0, rng);
  ASSERT_EQ(mutated.size(), frag.size());  // no indels requested
  std::size_t same = 0;
  for (std::size_t i = 0; i < frag.size(); ++i)
    if (frag[i] == mutated[i]) ++same;
  EXPECT_GT(same, 700u);
  EXPECT_LT(same, 900u);
}

TEST(Generator, BenchmarkQueriesHaveRequestedLengths) {
  for (const std::size_t len : {127u, 517u, 1054u}) {
    const auto q = bio::make_benchmark_query(len);
    EXPECT_EQ(q.residues.size(), len);
    EXPECT_EQ(q.id, "query" + std::to_string(len));
  }
}

TEST(Generator, ResidueCompositionTracksBackground) {
  util::Rng rng(21);
  const auto seq = bio::random_protein(200000, rng);
  std::array<double, bio::kAlphabetSize> counts{};
  for (const auto r : seq) counts[r] += 1.0;
  const auto& f = bio::background_frequencies();
  for (int i = 0; i < bio::kNumRealAminoAcids; ++i)
    EXPECT_NEAR(counts[i] / 200000.0, f[i], 0.01);
}

}  // namespace
}  // namespace repro
