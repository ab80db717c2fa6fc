// Cooperative cancellation for the exploration pipeline: one token shared
// by everything a request runs — the daemon's watchdog, the client's
// deadline, the search engines' hot loops — so an expired or abandoned
// request stops burning CPU at the next poll instead of running to
// completion.
//
// The contract mirrors BudgetGate's: checks are *cooperative* (the engines
// poll at the same cadence as the budget gate — once per search-tree node)
// and *pure* until the token trips — a token that never fires changes
// nothing, so results stay byte-identical across subtree-split thread
// counts. Once tripped, searches return their best-so-far partial answer
// with stats.cancelled set, and the memo layer refuses to store them (same
// discipline as exhausted-gate results: the cache key cannot see the token).
//
// Deadlines ride the same token: arm_deadline_ms() stamps a steady-clock
// expiry, poll() checks the clock every kPollStride calls (a relaxed flag
// load otherwise — the hot path costs one load), and expired() checks it
// immediately at phase boundaries. trip_after_polls() is the deterministic
// test seam: it fires on a poll *count* rather than the wall clock, so
// cancellation-purity tests do not depend on timing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace isex {

/// The canonical reason a deadline-armed token trips with; clients and the
/// daemon surface it verbatim (report.partial_reason, error payloads).
inline constexpr const char* kReasonDeadlineExceeded = "deadline_exceeded";

class CancelToken {
 public:
  CancelToken() = default;

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the token. The first caller's reason sticks (set-once); the flag
  /// store is release-ordered so a poller that observes it also observes the
  /// reason. Idempotent and thread-safe — the watchdog and a deadline may
  /// race, and either outcome is a correctly-attributed cancellation.
  void cancel(const std::string& reason);

  /// Relaxed-load check; the engines' hot path.
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }

  /// The first cancel()'s reason; empty while the token is untripped.
  std::string reason() const;

  /// Arms a steady-clock deadline `ms` from now (0 = disarm; a deadline
  /// past the clock's range saturates to "never expires"). Must be
  /// called before the token is shared with pollers — arming is not
  /// synchronized against concurrent poll()/expired().
  void arm_deadline_ms(std::uint64_t ms);
  bool has_deadline() const { return armed_; }

  /// Immediate deadline check (phase boundaries, watchdog ticks): trips the
  /// token with kReasonDeadlineExceeded when the deadline passed. Returns
  /// the tripped state either way.
  bool expired();

  /// Hot-loop check: counts the call and consults the wall clock only every
  /// kPollStride polls (or trips deterministically at the trip_after_polls
  /// seam). Returns the tripped state. Pure reads plus one relaxed counter
  /// increment until the token fires — a never-firing token leaves every
  /// search byte-identical.
  bool poll();

  /// Deterministic test seam: poll() trips the token (reason "trip_after")
  /// once the shared poll count reaches `n` (0 = off). Arm before sharing,
  /// like arm_deadline_ms().
  void trip_after_polls(std::uint64_t n) { trip_after_ = n; }

  /// How many poll() calls elapse between wall-clock deadline checks.
  static constexpr std::uint64_t kPollStride = 64;

 private:
  std::atomic<bool> flag_{false};
  std::atomic<std::uint64_t> polls_{0};
  std::uint64_t trip_after_ = 0;
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_{};

  mutable std::mutex mu_;  // guards reason_
  std::string reason_;
};

}  // namespace isex
