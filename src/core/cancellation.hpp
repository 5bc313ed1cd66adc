// Cooperative cancellation and deadlines for the search pipeline
// (DESIGN.md §14).
//
// A CancellationSource owns a stop flag (and optionally a deadline on the
// util::MonotonicClock timeline); CancellationTokens are cheap shared views
// of that state. The pipeline polls tokens at stage boundaries — between
// degradation-ladder rungs, between database blocks, between the CPU-stage
// blocks, and before finalization — and aborts by throwing SearchError with
// kCancelled or kDeadlineExceeded. Cancellation is *cooperative*: a request
// stops at the next checkpoint, never mid-kernel, so device buffers unwind
// through their normal RAII owners and nothing leaks.
//
// Determinism contract: a default-constructed (empty) token makes every
// check a null test, and a token without a deadline never reads the clock —
// so an uncancelled, un-deadlined request performs exactly the same clock
// reads and produces bit-identical results to a run without any token.
// Deadline checks read util::MonotonicClock, the single clock seam, which
// keeps expiry decisions deterministic under VirtualClockScope (virtual
// time advances only with clock reads, in program order).
//
// Tokens can be *linked* (with_deadline): the derived token stops when its
// own deadline passes or when any ancestor is cancelled. The service layer
// uses this to combine a client's cancel handle with the per-request
// deadline without mutating client-visible state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/errors.hpp"
#include "util/svccheck.hpp"
#include "util/timer.hpp"

namespace repro::core {

/// Live pipeline-stage beacon for service introspection (DESIGN.md §16):
/// every cancellation checkpoint publishes its name here as it is polled,
/// so SearchService::status_snapshot can say *where* the in-flight query
/// currently is without any per-stage plumbing. The stored pointer must be
/// a string literal (every checkpoint site passes one), which is what makes
/// a raw const char* store race-free and allocation-free — one relaxed
/// store per checkpoint, nothing on the lane-level hot path. Process-wide
/// by design: one worker thread runs queries at a time.
namespace stage_beacon {
inline std::atomic<const char*>& slot() {
  static std::atomic<const char*> current{nullptr};
  return current;
}
}  // namespace stage_beacon

inline void note_pipeline_stage(const char* checkpoint) {
  stage_beacon::slot().store(checkpoint, std::memory_order_relaxed);
}

/// The most recently polled checkpoint name (nullptr when no query has
/// reached a checkpoint since the last note_pipeline_stage(nullptr)).
[[nodiscard]] inline const char* current_pipeline_stage() {
  return stage_beacon::slot().load(std::memory_order_relaxed);
}

/// Why a token says to stop (kNone = keep going).
enum class StopReason : std::uint8_t {
  kNone,
  kCancelled,
  kDeadlineExceeded,
};

namespace cancel_internal {

/// Shared stop state. `cancelled` uses release/acquire ordering so a
/// checkpoint that observes the flag also observes every write the
/// cancelling thread made before calling cancel(). `deadline_ns` and
/// `parent` are immutable after construction (set before the state is
/// shared), so plain reads are race-free.
struct State {
  std::atomic<bool> cancelled{false};
  std::uint64_t deadline_ns = 0;  ///< absolute MonotonicClock ns; 0 = none
  std::shared_ptr<const State> parent;  ///< linked ancestor (may be null)
};

}  // namespace cancel_internal

/// A cheap, copyable view of a cancellation state. Empty tokens (the
/// default) never stop anything and make every check a null test.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// True when cancel() was called on this token's source or any linked
  /// ancestor's. Never reads the clock.
  [[nodiscard]] bool cancel_requested() const {
    for (const cancel_internal::State* s = state_.get(); s != nullptr;
         s = s->parent.get())
      if (s->cancelled.load(std::memory_order_acquire)) return true;
    return false;
  }

  /// Why the bearer should stop, kNone to keep going. Cancellation wins
  /// over an expired deadline (the explicit signal is the stronger one).
  /// Reads the clock only when some state in the chain carries a deadline.
  [[nodiscard]] StopReason stop_reason() const {
    if (state_ == nullptr) return StopReason::kNone;
    if (cancel_requested()) return StopReason::kCancelled;
    const std::uint64_t deadline = deadline_ns();
    if (deadline != 0 && util::MonotonicClock::now_ns() >= deadline)
      return StopReason::kDeadlineExceeded;
    return StopReason::kNone;
  }

  /// The pipeline checkpoint: throws SearchError{kCancelled} or
  /// SearchError{kDeadlineExceeded} naming `checkpoint` when the bearer
  /// should stop. No-op for empty tokens. Every call — empty token or not —
  /// registers the checkpoint with svccheck's coverage scope first (one
  /// relaxed load when the analyzer is off), so checkpoint-gap analysis
  /// sees exactly the poll sites the pipeline actually reaches.
  void throw_if_stopped(const char* checkpoint) const {
    util::svc::note_checkpoint(checkpoint);
    note_pipeline_stage(checkpoint);
    if (state_ == nullptr) [[likely]]
      return;
    switch (stop_reason()) {
      case StopReason::kNone: return;
      case StopReason::kCancelled:
        throw SearchError(SearchErrorCode::kCancelled,
                          std::string("request cancelled at checkpoint '") +
                              checkpoint + "'");
      case StopReason::kDeadlineExceeded:
        throw SearchError(SearchErrorCode::kDeadlineExceeded,
                          std::string("request deadline expired at "
                                      "checkpoint '") +
                              checkpoint + "'");
    }
  }

  /// The earliest deadline in the link chain (0 = none).
  [[nodiscard]] std::uint64_t deadline_ns() const {
    std::uint64_t deadline = 0;
    for (const cancel_internal::State* s = state_.get(); s != nullptr;
         s = s->parent.get())
      if (s->deadline_ns != 0 && (deadline == 0 || s->deadline_ns < deadline))
        deadline = s->deadline_ns;
    return deadline;
  }

  /// The root cancel flag, for sub-checkpoint propagation into
  /// util::ThreadPool::run_shards (simt layer takes a raw atomic, not a
  /// core type). Null for empty tokens. Only the root flag is exposed: in
  /// a linked chain that is the client-held source, the one that can
  /// actually fire mid-flight.
  [[nodiscard]] const std::atomic<bool>* root_flag() const {
    const cancel_internal::State* s = state_.get();
    if (s == nullptr) return nullptr;
    while (s->parent != nullptr) s = s->parent.get();
    return &s->cancelled;
  }

  /// A token that additionally stops once `deadline_ns` (absolute
  /// MonotonicClock ns) passes. Links to this token: ancestor cancellation
  /// still stops the derived token; this token's own state is untouched.
  [[nodiscard]] CancellationToken with_deadline(std::uint64_t deadline_ns)
      const {
    auto state = std::make_shared<cancel_internal::State>();
    state->deadline_ns = deadline_ns;
    state->parent = state_;
    return CancellationToken(std::move(state));
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(
      std::shared_ptr<const cancel_internal::State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const cancel_internal::State> state_;
};

/// Owner side of a cancellation: hand out token() views, call cancel() to
/// stop every bearer at its next checkpoint. Thread-safe; cancel() is
/// idempotent.
class CancellationSource {
 public:
  CancellationSource()
      : state_(std::make_shared<cancel_internal::State>()) {}

  [[nodiscard]] CancellationToken token() const {
    return CancellationToken(state_);
  }

  /// Release store: a checkpoint that observes the flag also observes
  /// everything the cancelling thread wrote before this call.
  void cancel() { state_->cancelled.store(true, std::memory_order_release); }

  [[nodiscard]] bool cancel_requested() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<cancel_internal::State> state_;
};

}  // namespace repro::core
