// Algorithm 5: window-based ungapped extension (paper §3.4, Fig. 8/9d).
//
// A warp is divided into windows of `window_size` lanes; each window walks
// one (sequence, diagonal) segment and extends its hits cooperatively: per
// round, the window's lanes score `window_size` consecutive positions,
// compute the running score with an inclusive plus-scan (the CUB-style
// PrefixSum of Fig. 8), the running best with an inclusive max-scan, the
// ChangeSinceBest/DropFlag per position, and stop at the first flagged
// position. The result is bit-identical to the scalar x-drop extension —
// verified by tests — while replacing the per-lane serial loop with
// log2(window) warp steps per window of positions.
#include <climits>

#include "core/extension_internal.hpp"
#include "core/scoring.hpp"

namespace repro::core::detail {

namespace {

using simt::BlockCtx;
using simt::LaneArray;
using simt::WarpExec;

constexpr int kNegInf = INT_MIN / 4;
constexpr std::uint32_t kBig = 1u << 30;
constexpr int kBoundaryScore = -100000;  ///< forces a DropFlag at the edge

/// One direction of the window-based extension. Direction is encoded by
/// the position mapping: `right` maps round offsets past the seed word,
/// left maps them before it. All inputs are window-uniform.
struct WindowHalf {
  LaneArray<int> gain{};            ///< best accumulated gain
  LaneArray<std::uint32_t> off{};   ///< scalar-compatible best offset
};

template <class PosMap>
WindowHalf window_extend_half(WarpExec& w, const DeviceScoring& scoring,
                              const std::uint8_t* residues, int window_size,
                              int xdrop, PosMap&& map) {
  // window_size is a validated power of two: lane & mask is the lane's
  // position within its window.
  const int window_mask = window_size - 1;
  WindowHalf half;
  LaneArray<std::uint8_t> done{};
  LaneArray<std::uint32_t> round{};
  LaneArray<int> carry_run{};
  LaneArray<int> carry_best{};

  w.loop_while(
      [&](int lane) { return done[lane] == 0; },
      [&] {
        // Per-lane position of this round.
        LaneArray<std::uint32_t> offset{};
        LaneArray<std::uint32_t> qp{};
        LaneArray<std::uint32_t> sidx{};
        LaneArray<std::uint8_t> valid{};
        w.vec([&](int lane) {
          offset[lane] = round[lane] * static_cast<std::uint32_t>(
                                           window_size) +
                         static_cast<std::uint32_t>(lane & window_mask);
          valid[lane] = map(lane, offset[lane], qp[lane], sidx[lane]) ? 1 : 0;
        });

        LaneArray<int> vals{};
        w.if_then_else(
            [&](int lane) { return valid[lane] != 0; },
            [&] {
              LaneArray<std::uint8_t> sres{};
              w.gather(residues, sidx, sres);
              scoring.score_step(w, qp, sres, vals);
            },
            [&] { w.vec([&](int lane) { vals[lane] = kBoundaryScore; }); });

        // PrefixSum (Fig. 8) with the carry from previous rounds.
        w.window_inclusive_scan(vals, window_size);
        LaneArray<int> prefix{};
        w.vec([&](int lane) { prefix[lane] = carry_run[lane] + vals[lane]; });

        // Running best including previous rounds.
        LaneArray<int> best_scan = prefix;
        w.window_inclusive_max_scan(best_scan, window_size);
        LaneArray<int> best_up_to{};
        w.vec([&](int lane) {
          best_up_to[lane] = std::max(carry_best[lane], best_scan[lane]);
        });

        // DropFlag and the first flagged position of each window.
        LaneArray<std::uint32_t> flag_key{};
        w.vec([&](int lane) {
          const bool drop = best_up_to[lane] - prefix[lane] > xdrop;
          flag_key[lane] =
              drop ? static_cast<std::uint32_t>(
                         window_size - (lane & window_mask))
                   : 0u;
        });
        LaneArray<std::uint32_t> first_key = flag_key;
        w.window_reduce_max(first_key, window_size);

        LaneArray<std::uint32_t> limit{};
        LaneArray<std::uint8_t> flagged{};
        w.vec([&](int lane) {
          flagged[lane] = first_key[lane] > 0 ? 1 : 0;
          limit[lane] = flagged[lane]
                            ? static_cast<std::uint32_t>(window_size) -
                                  first_key[lane]
                            : static_cast<std::uint32_t>(window_size - 1);
        });

        // Best score over positions up to the limit (monotone scan makes
        // this the value at the limit lane; reduce to broadcast it).
        LaneArray<int> bounded{};
        w.vec([&](int lane) {
          bounded[lane] =
              static_cast<std::uint32_t>(lane & window_mask) <= limit[lane]
                  ? best_up_to[lane]
                  : kNegInf;
        });
        w.window_reduce_max(bounded, window_size);

        // Arg of the new best (first position attaining it), if improved.
        LaneArray<std::uint32_t> arg_key{};
        w.vec([&](int lane) {
          const bool attains =
              static_cast<std::uint32_t>(lane & window_mask) <=
                  limit[lane] &&
              prefix[lane] == bounded[lane] &&
              bounded[lane] > carry_best[lane];
          arg_key[lane] = attains ? kBig - offset[lane] : 0u;
        });
        w.window_reduce_max(arg_key, window_size);

        // Carry-out of the running sum (value at the window's last lane).
        LaneArray<int> carry_key{};
        w.vec([&](int lane) {
          carry_key[lane] =
              (lane & window_mask) == window_size - 1 ? prefix[lane] : kNegInf;
        });
        w.window_reduce_max(carry_key, window_size);

        w.vec([&](int lane) {
          if (bounded[lane] > carry_best[lane]) {
            carry_best[lane] = bounded[lane];
            half.off[lane] = kBig - arg_key[lane];  // offset of the best
          }
          if (flagged[lane] != 0) {
            done[lane] = 1;
          } else {
            carry_run[lane] = carry_key[lane];
            ++round[lane];
          }
        });
      });

  w.vec([&](int lane) { half.gain[lane] = std::max(0, carry_best[lane]); });
  return half;
}

}  // namespace

void run_window_extension_kernel(simt::Engine& engine, const Config& config,
                                 const QueryDevice& query,
                                 const BlockDevice& block,
                                 const FilteredBins& filtered,
                                 const simt::LaunchConfig& cfg,
                                 const std::vector<std::uint32_t>& region_base,
                                 ExtensionRecords& records,
                                 std::vector<std::uint32_t>& emitted,
                                 std::atomic<std::uint64_t>& extensions_run) {
  const std::size_t total_bins = filtered.counts.size();
  const int ws = config.window_size;
  if (ws < 2 || ws > 32 || (ws & (ws - 1)) != 0)
    throw std::invalid_argument(
        "window extension: window_size must be a power of two in [2, 32]");
  const int windows_per_warp = 32 / ws;

  const auto cutoff = config.params.ungapped_cutoff;
  const auto word = static_cast<std::uint32_t>(config.params.word_length);
  const int xdrop = config.params.ungapped_xdrop;
  const std::uint32_t qlen = query.query_length;

  engine.launch(cfg, [&](BlockCtx& ctx) {
    const DeviceScoring scoring = DeviceScoring::setup(ctx, config, query);
    ctx.par([&](WarpExec& w) {
      const auto total_warps =
          static_cast<std::size_t>(w.num_warps_total());
      for (std::size_t b = static_cast<std::size_t>(w.global_warp_id());
           b < total_bins; b += total_warps) {
      const std::uint32_t base = filtered.offsets[b];
      const std::uint32_t count = filtered.counts[b];
      const std::uint32_t num_segs = filtered.seg_counts[b];
      const std::uint32_t out_base = region_base[b];
      std::uint32_t cursor = 0;

      // Window-uniform segment iteration: window k starts at segment k.
      LaneArray<std::uint32_t> seg{};
      w.vec([&](int lane) {
        seg[lane] = static_cast<std::uint32_t>(lane / ws);
      });
      w.loop_while(
          [&](int lane) { return seg[lane] < num_segs; },
          [&] {
            LaneArray<std::uint32_t> sidx{};
            LaneArray<std::uint32_t> seg_begin{};
            LaneArray<std::uint32_t> seg_end{};
            w.vec([&](int lane) { sidx[lane] = base + seg[lane]; });
            w.gather(filtered.seg_starts.data(), sidx, seg_begin);
            w.if_then_else(
                [&](int lane) { return seg[lane] + 1 < num_segs; },
                [&] {
                  LaneArray<std::uint32_t> nidx{};
                  w.vec([&](int lane) { nidx[lane] = sidx[lane] + 1; });
                  w.gather(filtered.seg_starts.data(), nidx, seg_end);
                },
                [&] { w.vec([&](int lane) { seg_end[lane] = count; }); });

            LaneArray<std::uint32_t> k = seg_begin;
            LaneArray<std::int32_t> ext_reach{};
            w.vec([&](int lane) { ext_reach[lane] = -1; });

            w.loop_while(
                [&](int lane) { return k[lane] < seg_end[lane]; },
                [&] {
                  // Window-uniform hit fetch.
                  LaneArray<std::uint32_t> hidx{};
                  LaneArray<std::uint64_t> packed{};
                  w.vec([&](int lane) { hidx[lane] = base + k[lane]; });
                  w.gather(filtered.hits.data(), hidx, packed);
                  LaneArray<std::uint32_t> seq{}, spos{}, qpos{}, seq_off{},
                      seq_len{};
                  LaneArray<std::int32_t> diag{};
                  w.vec([&](int lane) {
                    seq[lane] = hit_seq(packed[lane]);
                    diag[lane] = hit_diagonal(packed[lane]);
                    spos[lane] = hit_spos(packed[lane]);
                    qpos[lane] = hit_qpos(packed[lane]);
                  });
                  LaneArray<std::uint32_t> next{}, hi{};
                  w.gather(block.offsets.data(), seq, seq_off);
                  w.vec([&](int lane) { next[lane] = seq[lane] + 1; });
                  w.gather(block.offsets.data(), next, hi);
                  w.vec([&](int lane) {
                    seq_len[lane] = hi[lane] - seq_off[lane];
                  });

                  w.if_then(
                      [&](int lane) {
                        return static_cast<std::int32_t>(spos[lane]) >
                               ext_reach[lane];
                      },
                      [&] {
                        // Seed-word score (window-uniform broadcast loads).
                        LaneArray<int> word_score{};
                        for (std::uint32_t i = 0; i < word; ++i) {
                          LaneArray<std::uint32_t> qp{}, sx{};
                          LaneArray<std::uint8_t> sres{};
                          LaneArray<int> sc{};
                          w.vec([&](int lane) {
                            qp[lane] = qpos[lane] + i;
                            sx[lane] = seq_off[lane] + spos[lane] + i;
                          });
                          w.gather(block.residues.data(), sx, sres);
                          scoring.score_step(w, qp, sres, sc);
                          w.vec([&](int lane) {
                            word_score[lane] += sc[lane];
                          });
                        }

                        // Right window (paper Fig. 8, right of the hit).
                        const WindowHalf right = window_extend_half(
                            w, scoring, block.residues.data(), ws, xdrop,
                            [&](int lane, std::uint32_t offset,
                                std::uint32_t& qp, std::uint32_t& sx) {
                              const std::uint32_t q =
                                  qpos[lane] + word + offset;
                              const std::uint32_t s =
                                  spos[lane] + word + offset;
                              qp = q;
                              sx = seq_off[lane] + s;
                              return q < qlen && s < seq_len[lane];
                            });

                        // Left window (opposite direction, concurrently in
                        // the paper; sequential rounds here, same result).
                        const WindowHalf left = window_extend_half(
                            w, scoring, block.residues.data(), ws, xdrop,
                            [&](int lane, std::uint32_t offset,
                                std::uint32_t& qp, std::uint32_t& sx) {
                              const std::uint32_t dist = offset + 1;
                              const bool ok = dist <= qpos[lane] &&
                                              dist <= spos[lane];
                              qp = ok ? qpos[lane] - dist : 0;
                              sx = ok ? seq_off[lane] + spos[lane] - dist
                                      : seq_off[lane];
                              return ok;
                            });

                        extensions_run.fetch_add(
                            static_cast<std::uint64_t>(
                                w.active_lanes() / ws),
                            std::memory_order_relaxed);

                        LaneArray<std::uint32_t> q_start{}, q_end{};
                        LaneArray<int> total{};
                        LaneArray<std::uint8_t> emit{};
                        LaneArray<std::uint32_t> diag_biased{};
                        w.vec([&](int lane) {
                          const std::uint32_t right_off =
                              right.gain[lane] > 0 ? right.off[lane] + 1 : 0;
                          const std::uint32_t left_off =
                              left.gain[lane] > 0 ? left.off[lane] + 1 : 0;
                          total[lane] = word_score[lane] +
                                        right.gain[lane] + left.gain[lane];
                          q_start[lane] = qpos[lane] - left_off;
                          q_end[lane] = qpos[lane] + word - 1 + right_off;
                          ext_reach[lane] =
                              static_cast<std::int32_t>(q_end[lane]) +
                              diag[lane];
                          emit[lane] = ((lane & (ws - 1)) == 0 &&
                                        total[lane] >= cutoff)
                                           ? 1
                                           : 0;
                          diag_biased[lane] = static_cast<std::uint32_t>(
                              diag[lane] + kDiagonalBias);
                        });
                        emit_records(w, records, out_base, cursor, emit, seq,
                                     diag_biased, spos, q_start, q_end,
                                     total);
                      });
                  w.vec([&](int lane) { ++k[lane]; });
                });
            w.vec([&](int lane) {
              seg[lane] += static_cast<std::uint32_t>(windows_per_warp);
            });
          });
      emitted[b] = cursor;
      }
    });
  });
}

}  // namespace repro::core::detail
