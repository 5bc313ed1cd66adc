// SM-sharded parallel engine: for any worker count, kernel results,
// per-kernel KernelStats, and ProfileRegistry totals must be bit-identical
// to serial execution (the invariant DESIGN.md's sharding section argues).
// Every block of a shard runs on one re-armed shared arena; the SharedArena
// tests pin that each block still sees a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "simt/engine.hpp"

namespace repro {
namespace {

using simt::LaneArray;
using simt::MemKind;

void expect_stats_equal(const simt::KernelStats& a,
                        const simt::KernelStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.vec_ops, b.vec_ops);
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum);
  EXPECT_EQ(a.ld_requests, b.ld_requests);
  EXPECT_EQ(a.ld_bytes_requested, b.ld_bytes_requested);
  EXPECT_EQ(a.ld_transactions, b.ld_transactions);
  EXPECT_EQ(a.st_requests, b.st_requests);
  EXPECT_EQ(a.st_bytes_requested, b.st_bytes_requested);
  EXPECT_EQ(a.st_transactions, b.st_transactions);
  EXPECT_EQ(a.rocache_hits, b.rocache_hits);
  EXPECT_EQ(a.rocache_misses, b.rocache_misses);
  EXPECT_EQ(a.shared_ops, b.shared_ops);
  EXPECT_EQ(a.shared_conflict_passes, b.shared_conflict_passes);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.atomic_serial_passes, b.atomic_serial_passes);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.block_threads, b.block_threads);
  EXPECT_EQ(a.regs_per_thread, b.regs_per_thread);
  EXPECT_EQ(a.shared_bytes, b.shared_bytes);
  EXPECT_EQ(a.occupancy, b.occupancy);  // exact: computed from merged sums
  EXPECT_EQ(a.time_ms, b.time_ms);
}

struct SyntheticRun {
  simt::KernelStats stats;
  std::vector<std::uint32_t> out;
  std::uint64_t counter = 0;
  double profile_total_ms = 0.0;
};

/// Runs a kernel that exercises every accounting path — read-only-cached
/// gathers (per-SM cache state), divergence, shared-memory gathers with
/// bank conflicts, shared and contended global atomics, and stores — over
/// grid 40 > num_sms, so SMs execute several blocks each. The input/output
/// buffers live in the fixture and are shared by every run: the memory
/// model keys transactions and cache sets off real addresses, so comparing
/// runs bit-for-bit requires identical buffers (fresh allocations are not
/// byte-identically placed by malloc, even for two serial runs).
class SyntheticKernel {
 public:
  SyntheticKernel() : data_(4096), out_(40 * 64, 0) {
    for (std::size_t i = 0; i < data_.size(); ++i)
      data_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }

  SyntheticRun run(int workers) {
    SyntheticRun run;
    std::fill(out_.begin(), out_.end(), 0u);
    counter_[0] = 0;
    simt::Engine engine;
    engine.set_workers(workers);

    run.stats = engine.launch(
        {"synthetic", 40, 64, 32}, [&](simt::BlockCtx& ctx) {
          auto region = ctx.shared().alloc<std::uint32_t>(64);
          ctx.par([&](simt::WarpExec& w) {
            LaneArray<std::uint32_t> idx{}, v{};
            w.vec([&](int lane) {
              idx[lane] = static_cast<std::uint32_t>(
                  (w.thread_id(lane) * 7) % 4096);
            });
            w.gather(data_.data(), idx, v, MemKind::kReadOnly);
            w.if_then([&](int lane) { return v[lane] % 3 == 0; },
                      [&] { w.vec([&](int lane) { v[lane] += 1; }); });

            LaneArray<std::uint32_t> sidx{}, sval{};
            w.vec([&](int lane) {
              // Stride-2 indices: pairs of lanes collide on 16 banks.
              sidx[lane] = static_cast<std::uint32_t>((lane * 2) % 64);
            });
            w.sh_gather<std::uint32_t, std::uint32_t>(region, sidx, sval);

            LaneArray<std::uint32_t> aidx{}, one{}, sold{};
            w.vec([&](int lane) {
              aidx[lane] = static_cast<std::uint32_t>(lane % 16);
              one[lane] = 1;
            });
            w.atomic_add_shared<std::uint32_t, std::uint32_t>(region, aidx,
                                                              one, sold);

            LaneArray<std::uint64_t> gone{}, gold{};
            LaneArray<std::uint32_t> zero{};
            w.vec([&](int lane) { gone[lane] = 1; });
            w.atomic_add_global(counter_, zero, gone, gold);

            LaneArray<std::uint32_t> oidx{};
            w.vec([&](int lane) {
              oidx[lane] = static_cast<std::uint32_t>(w.thread_id(lane));
            });
            w.scatter(out_.data(), oidx, v);
          });
        });

    run.out = out_;
    run.counter = counter_[0];
    run.profile_total_ms = engine.profile().total_time_ms();
    return run;
  }

 private:
  std::vector<std::uint32_t> data_;
  std::vector<std::uint32_t> out_;
  std::uint64_t counter_[1] = {0};
};

TEST(EngineParallel, BitIdenticalAcrossWorkerCounts) {
  SyntheticKernel kernel;
  const SyntheticRun serial = kernel.run(1);
  // Sanity: the kernel actually exercised the paths we compare.
  EXPECT_GT(serial.stats.rocache_hits, 0u);
  EXPECT_GT(serial.stats.rocache_misses, 0u);
  EXPECT_GT(serial.stats.atomic_serial_passes, 0u);
  EXPECT_GT(serial.stats.shared_conflict_passes, 0u);
  EXPECT_EQ(serial.counter, 40u * 64u);

  // Serial is reproducible over the same buffers...
  expect_stats_equal(serial.stats, kernel.run(1).stats);
  // ...and every worker count reproduces it bit-for-bit.
  for (const int workers : {2, 4, 13}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const SyntheticRun parallel = kernel.run(workers);
    expect_stats_equal(serial.stats, parallel.stats);
    EXPECT_EQ(serial.out, parallel.out);
    EXPECT_EQ(serial.counter, parallel.counter);
    EXPECT_EQ(serial.profile_total_ms, parallel.profile_total_ms);
  }
}

TEST(EngineParallel, RepeatedLaunchesMergeIdentically) {
  // ProfileRegistry accumulation across several launches must also match.
  std::vector<std::uint32_t> data(512);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint32_t>(i);
  auto run_repeats = [&data](int workers) {
    simt::Engine engine;
    engine.set_workers(workers);
    for (int rep = 0; rep < 3; ++rep) {
      engine.launch({"repeat", 20, 32, 16}, [&](simt::BlockCtx& ctx) {
        ctx.par([&](simt::WarpExec& w) {
          LaneArray<std::uint32_t> idx{}, v{};
          w.vec([&](int lane) {
            idx[lane] = static_cast<std::uint32_t>(
                (w.global_warp_id() + lane) % 512);
          });
          w.gather(data.data(), idx, v, MemKind::kReadOnly);
        });
      });
    }
    return engine.profile().at("repeat");
  };
  const simt::KernelStats serial = run_repeats(1);
  for (const int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_stats_equal(serial, run_repeats(workers));
  }
}

TEST(EngineParallel, WorkerExceptionsPropagate) {
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    simt::Engine engine;
    engine.set_workers(workers);
    EXPECT_THROW(
        engine.launch({"boom", 26, 32, 16},
                      [&](simt::BlockCtx& ctx) {
                        if (ctx.block_id() == 17)
                          throw std::runtime_error("boom");
                      }),
        std::runtime_error);
    // The engine must stay usable after a failed launch.
    const auto stats = engine.launch(
        {"after", 4, 32, 16}, [&](simt::BlockCtx& ctx) {
          ctx.par([&](simt::WarpExec& w) { w.vec([](int) {}); });
        });
    EXPECT_EQ(stats.num_blocks, 4u);
  }
}

// Grid 40 over 13 SMs: every shard's arena serves several blocks in a row,
// serially and at 4 workers alike.
constexpr int kArenaGrid = 40;

TEST(EngineParallel, SharedArenaIsZeroAtEveryBlockStart) {
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    simt::Engine engine;
    engine.set_workers(workers);
    std::vector<std::uint8_t> dirty_arena(kArenaGrid, 0);
    std::vector<std::uint8_t> dirty_alloc(kArenaGrid, 0);
    const auto kernel = [&](simt::BlockCtx& ctx) {
      const int b = ctx.block_id();
      auto& shared = ctx.shared();
      // The whole arena reads zero before the block allocates anything...
      dirty_arena[static_cast<std::size_t>(b)] =
          std::any_of(shared.base(), shared.base() + shared.capacity(),
                      [](std::uint8_t byte) { return byte != 0; });
      // ...and so does the block's own allocation, whose size (and so the
      // predecessor's dirty extent) varies from block to block.
      auto region =
          shared.alloc<std::uint32_t>(static_cast<std::size_t>(32 + b * 8));
      // Read everything (one barrier epoch), then dirty it for the next
      // block on this arena.
      const auto sweep = [&](simt::WarpExec& w, bool write) {
        LaneArray<std::uint32_t> idx{}, vals{};
        for (std::size_t base = 0; base < region.size(); base += 32) {
          w.vec([&](int lane) {
            idx[lane] = static_cast<std::uint32_t>(
                std::min(base + static_cast<std::size_t>(lane),
                         region.size() - 1));
            vals[lane] = 0xA5A5A5A5u ^ static_cast<std::uint32_t>(b);
          });
          if (write) {
            w.sh_scatter<std::uint32_t, std::uint32_t>(region, idx, vals);
          } else {
            w.sh_gather<std::uint32_t, std::uint32_t>(region, idx, vals);
            w.vec([&](int lane) {
              if (vals[lane] != 0) dirty_alloc[static_cast<std::size_t>(b)] = 1;
            });
          }
        }
      };
      ctx.par([&](simt::WarpExec& w) { sweep(w, false); });
      ctx.par([&](simt::WarpExec& w) { sweep(w, true); });
    };
    engine.launch({"arena_zero", kArenaGrid, 64, 16}, kernel);
    EXPECT_EQ(dirty_arena, std::vector<std::uint8_t>(kArenaGrid, 0));
    EXPECT_EQ(dirty_alloc, std::vector<std::uint8_t>(kArenaGrid, 0));
  }
}

TEST(EngineParallel, SharedArenaBytesAreTheLargestBlockHighWater) {
  // Block 0 allocates the most, so every later block on its arena must see
  // the high-water mark restart rather than inherit block 0's.
  const auto bytes_of = [](int b) {
    return static_cast<std::size_t>((kArenaGrid - b) * 24 + 8 * (b % 3));
  };
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    simt::Engine engine;
    engine.set_workers(workers);
    std::vector<std::size_t> high(kArenaGrid, 0);
    const auto stats = engine.launch(
        {"arena_high_water", kArenaGrid, 64, 16}, [&](simt::BlockCtx& ctx) {
          const int b = ctx.block_id();
          (void)ctx.shared().alloc<std::uint8_t>(bytes_of(b) / 2);
          ctx.shared().reset();
          (void)ctx.shared().alloc<std::uint8_t>(bytes_of(b));
          high[static_cast<std::size_t>(b)] = ctx.shared().high_water();
        });
    for (int b = 0; b < kArenaGrid; ++b)
      EXPECT_EQ(high[static_cast<std::size_t>(b)], bytes_of(b)) << b;
    EXPECT_EQ(stats.shared_bytes, bytes_of(0));
    EXPECT_EQ(engine.profile().at("arena_high_water").shared_bytes,
              bytes_of(0));
  }
}

TEST(EngineParallel, SharedArenaInitcheckFlagsEveryLaterBlock) {
  // Even blocks write their plain alloc before reading it (clean); odd
  // blocks read it first. A reused arena must not carry a predecessor's
  // definedness into the next block: every odd block is reported.
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    simt::Engine engine;
    engine.set_simtcheck_enabled(true);
    engine.set_workers(workers);
    engine.launch(
        {"arena_initcheck", kArenaGrid, 64, 16}, [](simt::BlockCtx& ctx) {
          auto buf = ctx.shared().alloc<std::uint32_t>(32);
          const bool write_first = ctx.block_id() % 2 == 0;
          ctx.par([&](simt::WarpExec& w) {
            if (w.warp_in_block() != 0) return;
            LaneArray<std::uint32_t> idx{}, vals{};
            w.vec([&](int lane) {
              idx[lane] = static_cast<std::uint32_t>(lane);
            });
            if (write_first)
              w.sh_scatter<std::uint32_t, std::uint32_t>(buf, idx, vals);
            w.if_then([](int lane) { return lane == 0; }, [&] {
              w.sh_gather(std::span<const std::uint32_t>(buf), idx, vals);
            });
          });
        });
    const auto& report = engine.hazards();
    EXPECT_EQ(report.count(simt::HazardKind::kSharedUninitRead),
              static_cast<std::uint64_t>(kArenaGrid / 2))
        << report.summary();
    EXPECT_EQ(report.total, static_cast<std::uint64_t>(kArenaGrid / 2));
    for (const auto& rec : report.records)
      EXPECT_EQ(rec.block % 2, 1) << rec.block;
  }
}

TEST(EngineParallel, WorkersClampedToDeviceSms) {
  simt::Engine engine;
  EXPECT_EQ(engine.workers(), 1);
  engine.set_workers(64);
  EXPECT_EQ(engine.workers(), engine.spec().num_sms);
  engine.set_workers(0);
  EXPECT_EQ(engine.workers(), 1);
  engine.set_workers(-3);
  EXPECT_EQ(engine.workers(), 1);
}

}  // namespace
}  // namespace repro
