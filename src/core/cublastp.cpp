#include "core/cublastp.hpp"

#include <utility>

#include "core/pipeline.hpp"
#include "core/search_session.hpp"

namespace repro::core {

CuBlastp::CuBlastp(Config config)
    : config_(normalized_config(std::move(config))) {}

SearchReport CuBlastp::search(std::span<const std::uint8_t> query,
                              const bio::SequenceDatabase& db) const {
  // One-shot session: fresh engines and a fresh database upload. Callers
  // answering many queries against one database should hold a
  // SearchSession instead (search_session.hpp) — it uploads the database
  // once.
  SearchSession session(config_, db);
  return session.search(query);
}

}  // namespace repro::core
