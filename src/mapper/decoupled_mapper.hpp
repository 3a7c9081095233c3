// The paper's contribution: space/time-decoupled CGRA mapping (Sec. IV).
//
// Pipeline per II (starting at mII):
//   1. TIME   — SAT search over the KMS with capacity + connectivity
//               constraints yields a schedule (labels per node).
//   2. SPACE  — monomorphism search places the labelled DFG into the MRRG.
//   3. If space fails (rare; Sec. IV-D argues it should not happen under the
//      constraints), block that label vector and ask for the next schedule.
//
// The result records the two phase times separately — Table III's
// "Time"/"Space" columns.
#ifndef MONOMAP_MAPPER_DECOUPLED_MAPPER_HPP
#define MONOMAP_MAPPER_DECOUPLED_MAPPER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "mapper/cross_ii_store.hpp"
#include "mapper/mapping.hpp"
#include "space/monomorphism.hpp"
#include "support/outcome.hpp"
#include "timing/time_solver.hpp"

namespace monomap {

struct DecoupledMapperOptions {
  TimeSolverOptions time;
  SpaceOptions space;
  /// Overall wall-clock budget in seconds (paper: 4000 s); <= 0 = unlimited.
  double timeout_s = 4000.0;
  /// After this many *uninformative* space failures at one II, escalate to
  /// II+1. Uninformative means the search either truncated (budget ran
  /// out, nothing learned) or refuted the schedule with a conflict set
  /// spanning most of the DFG (> half the nodes — the nogood prunes almost
  /// no other schedules, the classic signature of a spatially dead II).
  /// Narrow refutations don't count against this: each one feeds a sound
  /// family-pruning nogood back into the time search, so retrying is
  /// progress, not wheel-spinning (they are bounded separately by
  /// max_space_refutations_per_ii).
  /// (The paper's Sec. IV-D argues failures should be rare; when the DFG
  /// has high-degree hubs the counting argument has gaps, and escalating
  /// II is what produces the II > mII rows seen in the paper's Table III.)
  int max_space_retries_per_ii = 8;
  /// Hard cap on narrow (family-pruning) space refutations at one II
  /// before the mapper escalates anyway (guards against an II whose huge
  /// schedule space is spatially dead but only refutable one narrow family
  /// at a time). 0 = unlimited.
  int max_space_refutations_per_ii = 64;
  /// Conflict-driven space budget adaptation. The per-schedule backtrack
  /// budget starts at space.max_backtracks and then tracks what the
  /// conflicts say, keyed off SpaceResult::shallowest_retreat (the
  /// minimum backjump target — how shallow the failure's conflicts
  /// reached, not how deep the dive got): a truncated search whose
  /// conflicts implicated shallow decisions marks a hopeless schedule
  /// family — shrink the budget and move on; one whose retreats all
  /// stayed confined near the leaves is a near-miss — double the budget
  /// (up to base * max_space_budget_boost); a complete refutation with a
  /// narrow conflict set resets to the base budget (the nogood channel is
  /// doing the pruning). Disable to get the historical flat behaviour
  /// (full budget on the first schedule of an II, a quarter on retries).
  bool adaptive_space_budget = true;
  /// Floor for the adapted budget.
  std::uint64_t min_space_backtracks = 4'096;
  /// Divisor applied to the budget after an uninformative failure
  /// (shallow truncation or wide refutation). 2 is cautious — it keeps
  /// mid-sized probes alive for schedules that are placeable but need
  /// some search; 4+ kills dead-II mills faster at the risk of truncating
  /// a findable placement.
  std::uint64_t space_budget_shrink_divisor = 2;
  /// Ceiling multiplier for the adapted budget (base * boost).
  std::uint64_t max_space_budget_boost = 8;
  /// A truncated search whose shallowest backjump target stayed at or
  /// above fraction * num_nodes counts as a near-miss (its conflicts never
  /// implicated the shallow placements).
  double near_miss_depth_fraction = 0.75;
  /// Last-chance probe: when an II is about to be abandoned on truncations
  /// alone — the engine never completed a single search there, so its
  /// feasibility is genuinely unknown and the later, budget-starved
  /// schedules may have been placeable — grant one more schedule at the
  /// full base budget before escalating. IIs with refutation evidence (the
  /// engine proved schedules dead there within budget) escalate without
  /// the probe. Bounded: one probe per II.
  bool last_chance_probe = true;
  /// Anytime mode (every II walk): before the bottom-up walk, secure a
  /// fallback mapping at the II ceiling (max(mII, #nodes) — where a fully
  /// sequential schedule always places) and cap the walk below it. If the
  /// walk is cut short by the deadline, the schedule budget, or the memory
  /// governor, the held mapping is returned marked MapOutcome::kDegraded
  /// with the sound interval [ii_lo, ii_hi] instead of a bare failure; if
  /// the walk soundly refutes everything below the ceiling, the fallback
  /// is promoted to kFeasible. Default off: the probe costs one extra
  /// mapping attempt, and non-anytime callers pin exact-walk behaviour.
  bool anytime = false;
  /// Deterministic work budget: give up (kDeadline, or kDegraded under
  /// anytime) after this many schedules have been tried. Unlike the wall
  /// clock this is bit-reproducible across machines and runs — the
  /// degraded-mode determinism test pins that. 0 = unlimited.
  int max_schedules = 0;
  /// Retries of one II attempt after an injected fault or allocation
  /// failure before the walk ends classified kFault/kMemory (bounded
  /// exponential backoff between tries; see support/fault.hpp).
  int max_fault_retries = 3;
  /// Per-request memory budget in MiB, accounted by the SAT learnt DB, the
  /// bitset searcher's trail reservations, and the cross-II nogood store
  /// (see support/resource.hpp). 0 = unlimited — and bit-identical to the
  /// ungoverned build.
  std::size_t memory_budget_mb = 0;
};

/// Aggregate telemetry for one map_batch call (the per-case MapResults
/// cannot carry pool-level counters without double counting).
struct BatchStats {
  std::uint64_t steals = 0;  // tasks taken from another worker's deque
  /// Tasks a worker put back after an injected pool.worker fault fired.
  std::uint64_t fault_requeues = 0;
  /// Cases per final MapOutcome, indexed by static_cast<int>(outcome).
  std::array<std::uint64_t, kMapOutcomeCount> outcome_counts{};
};

struct MapResult {
  /// `mapping` holds a valid mapping: exactly when `outcome` is kFeasible
  /// or kDegraded (the II walk asserts this when it commits).
  bool success = false;
  /// How the request ended, set where the evidence appears: a placed
  /// schedule, an exhausted or heuristically abandoned II (kRefuted), an
  /// expired deadline or schedule budget, a governor trip or failed
  /// allocation, a fault that outlived its retries, a fired cancel token.
  /// A cancel outranks the other cut-short verdicts, and under anytime a
  /// held mapping turns a cut-short walk into kDegraded.
  MapOutcome outcome = MapOutcome::kRefuted;
  /// Machine-readable cause chain (site, detail), outermost first. It also
  /// keeps the evidence the verdict outranks — a fault under a cancel
  /// leaves its {site, "injected fault"} link here.
  std::vector<OutcomeCause> causes;
  /// Fault-retry attempts consumed (see
  /// DecoupledMapperOptions::max_fault_retries).
  int fault_retries = 0;
  /// Sound interval for the optimal II. ii_lo = deepest soundly refuted
  /// II + 1 — an II counts as refuted only via natural time-phase
  /// exhaustion with zero truncated space searches at that II (heuristic
  /// skips prove nothing), contiguously from the walk's start. ii_hi is
  /// the achieved II on success/degraded, 0 (unknown) otherwise. On a
  /// kFeasible result from the plain walk ii_hi == ii but ii_lo may sit
  /// below it when the walk skipped IIs heuristically.
  int ii_lo = 1;
  int ii_hi = 0;
  /// The raw contiguous sound-refutation high-water mark behind ii_lo.
  int ii_refuted_up_to = 0;
  /// This run soundly refuted its ENTIRE II range (natural time-phase
  /// exhaustion, zero truncated space searches, no heuristic skips). For a
  /// pinned map_at_ii run this means exactly "this II is soundly refuted"
  /// — the II walk's interval tracking keys on it.
  bool sound_refutation = false;
  /// Memory-governor telemetry (zero when ungoverned).
  std::size_t mem_peak_bytes = 0;
  int mem_sheds = 0;
  Mapping mapping;
  int ii = 0;
  MiiBreakdown mii;
  double time_phase_s = 0.0;   // Table III "Time" column
  double space_phase_s = 0.0;  // Table III "Space" column
  double total_s = 0.0;
  int schedules_tried = 0;
  /// Space searches cut off by the backtrack budget (learned nothing).
  int space_truncated = 0;
  /// Space searches that ran to a complete refutation (each fed a nogood).
  int space_exhausted = 0;
  /// Non-chronological retreats summed over all space searches.
  std::uint64_t space_backjumps = 0;
  /// Adaptive-budget policy actions (see
  /// DecoupledMapperOptions::adaptive_space_budget).
  int budget_extensions = 0;
  int budget_shrinks = 0;
  int budget_probes = 0;  // last-chance full-budget searches granted
  /// Certificate-sharing runs: schedules discarded by the cross-II
  /// certificate prefilter without running a space search (each one is a
  /// space search another II or request already paid for). The clauses
  /// lifted from the certificates are counted in
  /// time_stats.nogoods_lifted_cross_ii.
  int speculative_hits = 0;
  std::string failure_reason;
  TimeSolverStats time_stats;
  SpaceResult last_space;
};

class DecoupledMapper {
 public:
  explicit DecoupledMapper(DecoupledMapperOptions options = {})
      : options_(options) {}

  /// Map `dfg` onto `arch`. The returned mapping (on success) always passes
  /// validate_mapping — this is asserted internally.
  ///
  /// The calling thread walks the IIs upward. Once the first II fails, the
  /// IIs above it also run on idle cores: helpers from the process-wide
  /// helper_pool(), as many as the cores not taken by other walks in
  /// progress. Each attempt is a pure function of its II and a feasible II
  /// commits only after every smaller one is refuted, so the answer and the
  /// effort counters equal the one-thread walk's. Walks with a schedule
  /// budget (max_schedules) or a memory budget stay on the caller.
  MapResult map(const Dfg& dfg, const CgraArch& arch) const;

  /// Like map(), but under an externally supplied deadline (which may carry
  /// a CancelToken). options_.timeout_s is ignored.
  MapResult map(const Dfg& dfg, const CgraArch& arch,
                const Deadline& deadline) const;

  /// Run the space/time loop pinned to exactly `ii` — no escalation. The
  /// per-II policy (nogood feedback, adaptive budgets, last-chance probe)
  /// is the exact code map() runs at one II, so outcome == kRefuted here
  /// means precisely "sequential map() would have escalated past ii".
  /// When `store` is non-null (register-persistence model only) the
  /// attempt drains the store into its time solver as warm-start clauses +
  /// a schedule prefilter, and contributes its own refutation certificates
  /// back.
  MapResult map_at_ii(const Dfg& dfg, const CgraArch& arch, int ii,
                      const Deadline& deadline,
                      CrossIiNogoodStore* store = nullptr) const;

  /// Warm-started sequential walk for the cross-request knowledge layer:
  /// map()'s walk, starting at max(refuted_floor + 1, mII), whose pinned
  /// attempts share `store` — seeded certificates prune schedules through
  /// the usual rotation-clause + prefilter channel, and refutations this
  /// walk finds are published back into `store` for the caller to
  /// harvest. `refuted_floor` must be sound (every II <= floor refuted by
  /// natural exhaustion — the KnowledgeStore only records such floors);
  /// the result's ii_refuted_up_to never exceeds a sound refutation. With
  /// a null store this is map() exactly, helpers included; with a store it
  /// stays on the calling thread, since which certificates an attempt sees
  /// would otherwise depend on timing.
  MapResult map_warm(const Dfg& dfg, const CgraArch& arch,
                     const Deadline& deadline,
                     CrossIiNogoodStore* store = nullptr,
                     int refuted_floor = 0) const;

  /// Map a whole batch of DFGs across `num_threads` worker threads
  /// (0 = hardware concurrency). Results are positionally aligned with
  /// `dfgs`. The whole batch shares ONE options_.timeout_s budget.
  std::vector<MapResult> map_batch(const std::vector<const Dfg*>& dfgs,
                                   const CgraArch& arch,
                                   int num_threads = 0) const;

  /// Like the above, but every item observes the externally supplied
  /// shared `deadline` — including its CancelToken, so a caller can cut an
  /// entire in-flight batch short. options_.timeout_s is ignored.
  ///
  /// With num_threads != 1 the batch runs on a work-stealing pool: each
  /// case's walk is a pool task whose lookahead-1 helpers are tasks on the
  /// same pool, so one pathological case no longer idles the other cores;
  /// with num_threads == 1 every case runs map() in order.
  /// `stats`, when non-null, receives pool-level telemetry.
  std::vector<MapResult> map_batch(const std::vector<const Dfg*>& dfgs,
                                   const CgraArch& arch,
                                   const Deadline& deadline,
                                   int num_threads = 0,
                                   BatchStats* stats = nullptr) const;

 private:
  class IiWalk;  // the one II-walk driver behind every public walk
  friend struct DecoupledMapperTestPeer;  // the helper-free walk

  /// map_warm() with the lookahead window allowed (`race`) or kept shut:
  /// a shut window runs every II on the calling thread, in order.
  MapResult walk(const Dfg& dfg, const CgraArch& arch,
                 const Deadline& deadline, CrossIiNogoodStore* store,
                 int refuted_floor, bool race) const;

  /// One attempt pinned to exactly `ii`: the per-schedule space/time loop
  /// (pull schedules, run or prefilter the space search, feed conflicts
  /// back, adapt budgets, give the II up when the retry caps say so).
  /// `schedules_spent` of the walk's options_.max_schedules budget are
  /// already used by the IIs below; `store` is null outside
  /// certificate-sharing walks.
  MapResult run_mapping_loop(const Dfg& dfg, const CgraArch& arch, int ii,
                             const Deadline& deadline,
                             CrossIiNogoodStore* store,
                             const MiiBreakdown& mii,
                             int schedules_spent) const;

  DecoupledMapperOptions options_;
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_DECOUPLED_MAPPER_HPP
