// The benchmark's named workloads and their seeded inputs. The program only
// ever sees the generated database and queries; the seed stays here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bio/database.hpp"
#include "core/config.hpp"
#include "core/service.hpp"

namespace perfbench {

enum class Shape {
  kInteractive,  ///< closed loop, one client, SearchSession
  kFleetBatch,   ///< closed loop of search_batch calls on a K-shard fleet
  kOpenLoop,     ///< Poisson arrivals into a SearchService
};

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kInteractive;
  std::size_t db_sequences = 0;
  double homolog_fraction = 0.0;
  /// Lengths of the distinct queries; one round sends each once, in order
  /// (the open loop cycles through them request by request instead).
  std::vector<std::size_t> query_lengths;
  repro::core::Config config;
  repro::core::ServiceConfig service;
  /// Open loop only: relative request deadline, which is also the latency
  /// limit goodput counts against.
  double deadline_ms = 0.0;
};

/// The spec of a named workload; `scale` (0, 1] shrinks its database for
/// the self-test. Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name,
                                         double scale);

struct Inputs {
  /// Distinct queries (encoded residues), in round order.
  std::vector<std::vector<std::uint8_t>> queries;
  repro::bio::SequenceDatabase db;
};

/// Deterministic in (spec, seed): the queries, then a database with
/// homologs planted from them.
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
