// The K-shard fleet is core::SearchSession (search_session.hpp); this name
// is kept for callers that still spell it the old way.
#pragma once

#include "core/search_session.hpp"

namespace repro::core {

using ShardedSession = SearchSession;

}  // namespace repro::core
