#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "bio/generator.hpp"

namespace perfbench {

namespace core = repro::core;
namespace bio = repro::bio;

namespace {

/// SplitMix64 finalizer: decorrelates the per-part generator seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a: a workload-name salt that is the same on every platform.
std::uint64_t salt(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      8, static_cast<std::size_t>(std::lround(static_cast<double>(n) * scale)));
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name, double scale) {
  WorkloadSpec spec;
  spec.name = name;
  // The paper's defaults: 128 bins per warp, window-based extension,
  // read-only cache on, 4 database blocks, 4 CPU threads.
  spec.config.engine_workers = 1;
  spec.config.strategy = core::ExtensionStrategy::kWindow;
  if (name == "interactive") {
    spec.shape = Shape::kInteractive;
    spec.db_sequences = scaled(300, scale);
    spec.homolog_fraction = 0.035;
    spec.query_lengths = {127, 517, 1054};
    spec.config.shards = 1;
    spec.config.prefilter = core::PrefilterMode::kOff;
  } else if (name == "fleet_batch") {
    spec.shape = Shape::kFleetBatch;
    // Three queries of each length: a batch averages the gapped work of
    // three times as many planted homologs, and with equal thirds the
    // median latency falls inside the q517 third rather than on the jump
    // between two lengths (as it does with an even count per length).
    spec.db_sequences = scaled(1600, scale);
    spec.homolog_fraction = 0.2;
    spec.query_lengths = {127, 127, 127, 517, 517, 517, 1054, 1054, 1054};
    spec.config.shards = 4;
    spec.config.prefilter = core::PrefilterMode::kAuto;
  } else if (name == "service_openloop") {
    spec.shape = Shape::kOpenLoop;
    spec.db_sequences = scaled(100, scale);
    spec.homolog_fraction = 0.05;  // one planted homolog per query
    // Four short queries for every medium one.
    spec.query_lengths = {127, 127, 127, 127, 517};
    spec.config.shards = 1;
    spec.config.prefilter = core::PrefilterMode::kOff;
    // A 100-sequence database is one pipeline block.
    spec.config.db_blocks = 1;
    spec.service.queue_capacity = 256;
    spec.deadline_ms = 3000.0;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (interactive, fleet_batch, service_openloop)");
  }
  return spec;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  const std::uint64_t base = mix(seed ^ salt(spec.name));
  // The paper's fixed benchmark queries (four distinct short ones for the
  // open loop): the seed varies the database and the arrivals, not the
  // queries, so runs on different seeds do comparable work.
  for (std::size_t i = 0; i < spec.query_lengths.size(); ++i) {
    inputs.queries.push_back(
        bio::make_benchmark_query(spec.query_lengths[i], 0x9e37 + i).residues);
  }
  // One database part per distinct query: exactly round(fraction x n)
  // sequences with a homolog planted from that query, spread evenly among
  // background sequences, the part cut to a fixed residue budget (its share
  // of db_sequences at the profile's mean length). Exact counts keep the
  // gapped-stage work from varying with the seed's binomial draw.
  std::vector<bio::Sequence> sequences;
  const std::size_t parts = inputs.queries.size();
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t part_seqs =
        (p + 1) * spec.db_sequences / parts - p * spec.db_sequences / parts;
    const auto homologs = static_cast<std::size_t>(
        std::lround(static_cast<double>(part_seqs) * spec.homolog_fraction));
    auto profile = bio::DatabaseProfile::swissprot_like(homologs);
    profile.homolog_fraction = 1.0;
    const bio::SequenceDatabase planted =
        bio::DatabaseGenerator(profile, mix(base ^ (0x401ULL + p)))
            .generate(inputs.queries[p]);
    profile.num_sequences = part_seqs * 2;
    profile.homolog_fraction = 0.0;
    const bio::SequenceDatabase background =
        bio::DatabaseGenerator(profile, mix(base ^ (0x5eedULL + p))).generate();

    const auto budget = static_cast<std::size_t>(
        std::lround(static_cast<double>(part_seqs) * profile.mean_length));
    std::size_t residues = 0;
    for (std::size_t i = 0; i < planted.size(); ++i)
      residues += planted.length(i);
    std::vector<bio::Sequence> part;
    for (std::size_t i = 0; i < background.size() && residues < budget; ++i) {
      bio::Sequence s = background.sequence(i);
      if (residues + s.residues.size() > budget) {
        if (budget - residues < profile.min_length) break;
        s.residues.resize(budget - residues);
      }
      residues += s.residues.size();
      part.push_back(std::move(s));
    }
    // Homolog h goes in front of background sequence (h + 1/2) * n / k.
    const std::size_t n = part.size();
    for (std::size_t h = planted.size(); h-- > 0;)
      part.insert(part.begin() + static_cast<std::ptrdiff_t>(
                                     (2 * h + 1) * n / (2 * planted.size())),
                  planted.sequence(h));
    for (std::size_t i = 0; i < part.size(); ++i) {
      part[i].id = "p" + std::to_string(p) + "_" + std::to_string(i);
      sequences.push_back(std::move(part[i]));
    }
  }
  inputs.db = bio::SequenceDatabase(std::move(sequences));
  return inputs;
}

}  // namespace perfbench
