#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

/// @file deadline.hpp
/// Cooperative deadline token for long-running solver loops.
///
/// A Deadline is a cheap copyable handle over shared state; every copy
/// observes the same expiry. Two triggers compose (either one expires the
/// token):
///
///  - a wall-clock budget (`after_seconds`) checked against steady_clock;
///  - a deterministic check-count budget (`after_checks`): the token expires
///    after it has been polled N times, independent of wall time — the knob
///    tests and reproducible campaigns use to force expiry at an exact
///    sweep.
///
/// Callers poll `expired()` at coarse granularity (once per Gauss-Seidel
/// sweep, not per state) so the poll cost is invisible next to the work it
/// bounds. A default-constructed Deadline is inactive: `expired()` is false
/// forever and costs one relaxed atomic load.
///
/// Edge cases are pinned deterministic (tests/util/deadline_test.cpp):
/// a zero or negative wall budget constructs an already-expired token
/// without ever consulting the clock, absurdly large budgets saturate
/// instead of overflowing steady_clock arithmetic (which would wrap the
/// expiry into the past), and a check budget of N survives exactly N polls
/// on every machine.
namespace meda::util {

class Deadline {
 public:
  /// Inactive token: never expires.
  Deadline() : state_(std::make_shared<State>()) {}

  /// Token that expires once @p seconds of wall time elapse. Non-positive
  /// budgets are already expired at construction (no clock comparison
  /// involved — the token is born cancelled, deterministically). Budgets
  /// too large for steady_clock arithmetic saturate to "never expires by
  /// time" instead of wrapping.
  static Deadline after_seconds(double seconds);

  /// Token that survives exactly @p checks `expired()` polls and expires on
  /// the next one. Deterministic across machines and runs;
  /// `after_checks(0)` is already expired.
  static Deadline after_checks(std::uint64_t checks);

  /// True if any trigger (time or check budget) is armed.
  bool active() const {
    return state_->cancelled.load(std::memory_order_relaxed) ||
           state_->has_time_limit || state_->has_check_limit;
  }

  /// Polls the token. Once true, stays true.
  bool expired() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::uint64_t> checks{0};
    bool has_time_limit = false;
    bool has_check_limit = false;
    std::uint64_t check_limit = 0;
    Clock::time_point not_after{};
  };

  std::shared_ptr<State> state_;
};

}  // namespace meda::util
