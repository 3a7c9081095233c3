// Structured outcome taxonomy for mapping requests (the robustness layer's
// vocabulary).
//
// Every mapper entry point classifies how the request ended into one
// MapOutcome, set where the evidence appears (the II walk in
// decoupled_mapper.cpp; the rules are in docs/robustness.md) — there are
// no separate status flags to reconcile. The cause chain carries the
// machine-readable "why": one entry per subsystem that contributed
// evidence, including evidence the verdict outranks, in the order it
// appeared.
#ifndef MONOMAP_SUPPORT_OUTCOME_HPP
#define MONOMAP_SUPPORT_OUTCOME_HPP

#include <string>
#include <vector>

namespace monomap {

/// How a mapping request ended, from best to worst.
enum class MapOutcome {
  /// A valid mapping at the walk's minimal II.
  kFeasible,
  /// Anytime degradation: the search was cut short (deadline or work
  /// budget) but a valid mapping found earlier is returned, with a sound
  /// II interval [ii_lo, ii_hi] bracketing the true minimum.
  kDegraded,
  /// The search completed and proved (or walk-refuted) every II up to the
  /// cap infeasible; no mapping exists within the configured bounds.
  kRefuted,
  /// The wall-clock deadline (or deterministic schedule budget) expired
  /// with no feasible mapping in hand.
  kDeadline,
  /// The resource governor's memory budget tripped (or an allocation
  /// failed) before a verdict was reached.
  kMemory,
  /// An injected or real fault exhausted its retry budget.
  kFault,
  /// The caller's CancelToken fired; the request was abandoned, not
  /// answered.
  kCancelled,
};

/// Number of MapOutcome values (for counter arrays).
inline constexpr int kMapOutcomeCount = 7;

const char* to_string(MapOutcome outcome);

/// Process exit code for scripted callers: 0 feasible, a distinct small
/// non-zero per failure class (1 and 2 are reserved for generic I/O errors
/// and usage errors respectively).
int exit_code(MapOutcome outcome);

/// One link of the machine-readable cause chain: which subsystem produced
/// the evidence and what it observed.
struct OutcomeCause {
  std::string site;    // "time", "space", "sat", "pool", "governor", ...
  std::string detail;  // human-readable specifics
};

/// "site: detail; site: detail" — the canonical one-line rendering.
std::string format_causes(const std::vector<OutcomeCause>& causes);

}  // namespace monomap

#endif  // MONOMAP_SUPPORT_OUTCOME_HPP
