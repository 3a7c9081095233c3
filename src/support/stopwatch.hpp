// Wall-clock measurement and solve deadlines.
#ifndef MONOMAP_SUPPORT_STOPWATCH_HPP
#define MONOMAP_SUPPORT_STOPWATCH_HPP

#include <atomic>
#include <chrono>
#include <limits>

namespace monomap {

/// Steady-clock stopwatch; starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or last restart().
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_ms() const { return elapsed_s() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Cooperative cancellation flag shared between solver threads, observed
/// through a Deadline at its next periodic expiry check (a caller cuts a
/// request or a whole batch short with it). A token may be chained to a
/// parent:
/// the speculative mapper gives every II attempt its own token parented to
/// the caller's, so one attempt can be cancelled individually (a smaller II
/// won) while a caller-level cancel still reaches every attempt.
class CancelToken {
 public:
  CancelToken() = default;
  /// A token that also reports cancelled() when `parent` does. The parent
  /// must outlive this token; pass nullptr for a root token.
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }
  void reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
  const CancelToken* parent_ = nullptr;
};

/// A wall-clock budget shared by the phases of a solve. An infinite budget
/// means "no deadline"; a non-positive budget is already expired (tests use
/// Deadline(0.0) to exercise expiry paths) — callers treating "<= 0" as
/// unlimited must translate it themselves, as DecoupledMapper does. May
/// additionally carry a CancelToken: a cancelled token makes the deadline
/// report expiry immediately, regardless of the wall clock.
class Deadline {
 public:
  /// No deadline.
  Deadline() : limit_s_(std::numeric_limits<double>::infinity()) {}

  /// Deadline `budget_s` seconds from now.
  explicit Deadline(double budget_s) : limit_s_(budget_s) {}

  /// Deadline `budget_s` seconds from now that also honours `cancel`. The
  /// token must outlive the deadline; pass nullptr for no token.
  Deadline(double budget_s, const CancelToken* cancel)
      : limit_s_(budget_s), cancel_(cancel) {}

  [[nodiscard]] static Deadline unlimited() { return Deadline(); }

  [[nodiscard]] bool expired() const {
    if (cancel_ != nullptr && cancel_->cancelled()) return true;
    return watch_.elapsed_s() >= limit_s_;
  }

  /// The wall-clock component alone (ignores the cancel token). Lets a
  /// caller that observed expired() report *why*: a fired token with the
  /// wall clock still inside the budget is a cancellation, not a timeout.
  [[nodiscard]] bool wall_expired() const {
    return watch_.elapsed_s() >= limit_s_;
  }

  /// True when the attached cancel token (if any) has fired.
  [[nodiscard]] bool cancel_fired() const {
    return cancel_ != nullptr && cancel_->cancelled();
  }

  [[nodiscard]] const CancelToken* cancel_token() const { return cancel_; }

  /// Seconds remaining (never negative; +inf when unlimited; 0 once the
  /// cancel token fired, consistent with expired()).
  [[nodiscard]] double remaining_s() const {
    if (cancel_ != nullptr && cancel_->cancelled()) return 0.0;
    const double rem = limit_s_ - watch_.elapsed_s();
    return rem > 0.0 ? rem : 0.0;
  }

  [[nodiscard]] double elapsed_s() const { return watch_.elapsed_s(); }

  [[nodiscard]] double budget_s() const { return limit_s_; }

 private:
  Stopwatch watch_;
  double limit_s_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace monomap

#endif  // MONOMAP_SUPPORT_STOPWATCH_HPP
