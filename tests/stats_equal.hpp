// The address-independent KernelStats comparison shared by the session
// equivalence suites (batch, shard, service, simtprof).
//
// Excluded: rocache hits/misses, ld/st *transactions*, and the modeled
// time derived from them hash real heap addresses and differ between any
// two searches in one process; shared_bytes is a high-water mark (max, not
// a sum), so a per-query snapshot diff carries the session-lifetime peak.
// Bank conflicts and atomic serialization are compared: the shared arena
// base is 16-byte aligned, so another base rotates every bank index of an
// access together and the conflict tally stays the same (DESIGN.md §8).
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "simt/metrics.hpp"

namespace repro {

inline void expect_stats_equal(const simt::KernelStats& a,
                               const simt::KernelStats& b,
                               const std::string& name) {
  EXPECT_EQ(a.vec_ops, b.vec_ops) << name;
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum) << name;
  EXPECT_EQ(a.ld_requests, b.ld_requests) << name;
  EXPECT_EQ(a.ld_bytes_requested, b.ld_bytes_requested) << name;
  EXPECT_EQ(a.st_requests, b.st_requests) << name;
  EXPECT_EQ(a.st_bytes_requested, b.st_bytes_requested) << name;
  EXPECT_EQ(a.shared_ops, b.shared_ops) << name;
  EXPECT_EQ(a.shared_conflict_passes, b.shared_conflict_passes) << name;
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << name;
  EXPECT_EQ(a.atomic_serial_passes, b.atomic_serial_passes) << name;
  EXPECT_EQ(a.num_blocks, b.num_blocks) << name;
  EXPECT_EQ(a.occupancy, b.occupancy) << name;  // exact, not approximate
}

}  // namespace repro
