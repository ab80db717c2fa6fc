#include "support/cancellation.hpp"

namespace isex {

void CancelToken::cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reason_.empty()) reason_ = reason.empty() ? "cancelled" : reason;
  }
  flag_.store(true, std::memory_order_release);
}

std::string CancelToken::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

void CancelToken::arm_deadline_ms(std::uint64_t ms) {
  armed_ = ms != 0;
  if (!armed_) return;
  // Saturate: `now + ms` past the clock's range would overflow into the
  // past and trip at once; such a deadline means "never" in practice.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const auto headroom =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::time_point::max() - now);
  deadline_ = ms >= static_cast<std::uint64_t>(headroom.count())
                  ? Clock::time_point::max()
                  : now + std::chrono::milliseconds(ms);
}

bool CancelToken::expired() {
  if (flag_.load(std::memory_order_acquire)) return true;
  if (armed_ && std::chrono::steady_clock::now() >= deadline_) {
    cancel(kReasonDeadlineExceeded);
    return true;
  }
  return false;
}

bool CancelToken::poll() {
  if (flag_.load(std::memory_order_acquire)) return true;
  if (trip_after_ == 0 && !armed_) return false;
  const std::uint64_t n = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (trip_after_ != 0 && n >= trip_after_) {
    cancel("trip_after");
    return true;
  }
  if (armed_ && n % kPollStride == 0 &&
      std::chrono::steady_clock::now() >= deadline_) {
    cancel(kReasonDeadlineExceeded);
    return true;
  }
  return false;
}

}  // namespace isex
