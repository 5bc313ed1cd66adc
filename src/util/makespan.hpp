// Deterministic multi-worker makespan model.
//
// The paper's CPU-side scaling figures (Fig. 11, Fig. 13) were measured on a
// quad-core CPU. A T-thread wall-clock measurement on this reproduction's
// host would show that host's core count, not the model's. Instead, the
// benches measure each independent task's cost and compute the makespan a
// T-worker pool would achieve. Two schedules are provided:
//
//  * list_schedule   — greedy online list scheduling in submission order;
//                      this matches what ThreadPool::parallel_for_dynamic
//                      actually does (each worker grabs the next task).
//  * lpt_schedule    — Longest-Processing-Time-first; an upper-bound
//                      "well-balanced" schedule used for sensitivity checks.
//
// DESIGN.md §1 documents this substitution.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace repro::util {

/// One task's placement in a modeled schedule (used by the tracer to draw
/// the Fig. 12 CPU-side timeline).
struct ScheduledTask {
  std::size_t index = 0;   ///< position in the input cost list
  std::size_t worker = 0;  ///< worker the greedy schedule placed it on
  double start = 0.0;      ///< seconds from the schedule's zero
  double finish = 0.0;
};

/// Greedy online list schedule of `costs` (in submission order) onto
/// `workers` identical workers: each task goes to the earliest-finishing
/// worker (ties to the lowest worker id, so placements are deterministic).
/// This is the schedule whose makespan list_schedule_makespan reports.
[[nodiscard]] std::vector<ScheduledTask> list_schedule(
    std::span<const double> costs, std::size_t workers);

/// Makespan (seconds) of greedy list scheduling of `costs` (in submission
/// order) onto `workers` identical workers.
[[nodiscard]] double list_schedule_makespan(std::span<const double> costs,
                                            std::size_t workers);

/// Makespan of Longest-Processing-Time-first scheduling.
[[nodiscard]] double lpt_schedule_makespan(std::span<const double> costs,
                                           std::size_t workers);

/// Sum of all task costs (the single-worker makespan).
[[nodiscard]] double total_cost(std::span<const double> costs);

}  // namespace repro::util
