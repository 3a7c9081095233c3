#include "mapper/decoupled_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "sched/mii.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/resource.hpp"
#include "support/stopwatch.hpp"

namespace monomap {

namespace {

/// The verdict of an attempt cut short with evidence `why`: a fired cancel
/// token outranks it (the caller abandoned the request; `why` stays in the
/// causes).
MapOutcome cut_short(const Deadline& deadline, MapOutcome why) {
  return deadline.cancel_fired() ? MapOutcome::kCancelled : why;
}

/// Fold one resolved attempt's effort counters into an aggregate. Result
/// fields that identify the outcome (success, ii, mapping, failure_reason,
/// last_space, final_ii, learnt_retained) stay the receiver's.
void merge_attempt_counters(MapResult& into, const MapResult& from) {
  into.time_phase_s += from.time_phase_s;
  into.space_phase_s += from.space_phase_s;
  into.schedules_tried += from.schedules_tried;
  into.space_truncated += from.space_truncated;
  into.space_exhausted += from.space_exhausted;
  into.space_backjumps += from.space_backjumps;
  into.budget_extensions += from.budget_extensions;
  into.budget_shrinks += from.budget_shrinks;
  into.budget_probes += from.budget_probes;
  into.speculative_hits += from.speculative_hits;
  into.fault_retries += from.fault_retries;
  into.mem_sheds += from.mem_sheds;
  into.mem_peak_bytes = std::max(into.mem_peak_bytes, from.mem_peak_bytes);
  TimeSolverStats& t = into.time_stats;
  const TimeSolverStats& f = from.time_stats;
  t.instances_built += f.instances_built;
  t.sat_calls += f.sat_calls;
  t.solutions_yielded += f.solutions_yielded;
  t.sessions_created += f.sessions_created;
  t.horizon_extensions += f.horizon_extensions;
  t.assumptions_used += f.assumptions_used;
  t.nogoods_added += f.nogoods_added;
  t.narrow_nogoods += f.narrow_nogoods;
  t.nogoods_lifted += f.nogoods_lifted;
  t.nogoods_deduped += f.nogoods_deduped;
  t.nogoods_lifted_cross_ii += f.nogoods_lifted_cross_ii;
}

/// The deadline for entry points without one: options.timeout_s, where
/// <= 0 means unlimited.
Deadline default_deadline(const DecoupledMapperOptions& options) {
  return options.timeout_s > 0 ? Deadline(options.timeout_s)
                               : Deadline::unlimited();
}

/// Create this request's governor when a budget is configured and no outer
/// scope already bound one (a nested call inherits the outer request's
/// budget).
std::unique_ptr<ResourceGovernor> make_request_governor(
    std::size_t memory_budget_mb) {
  if (GovernorScope::current() != nullptr || memory_budget_mb == 0) {
    return nullptr;
  }
  return std::make_unique<ResourceGovernor>(memory_budget_mb << 20);
}

// The II attempts are CPU-bound SAT/search work: threads beyond the
// machine's cores only timeslice against each other, turning speculation
// from free use of spare cores into a tax on the frontier attempt. Treat
// the requested thread count as a ceiling.
int clamp_pool_threads(int requested) {
  const int cores = available_cores();
  if (requested <= 0) return cores;
  return std::min(requested, cores);
}

/// Wait for the pool's walks. A worker that died past its retry budget
/// leaves its walk uncommitted (IiWalk::take() classifies that as a fault,
/// so one poisoned case cannot sink a batch); anything else —
/// AssertionError above all — propagates.
void drain_pool(WorkStealingPool& pool) {
  const std::exception_ptr error = pool.wait_idle_collect();
  if (error == nullptr) return;
  try {
    std::rethrow_exception(error);
  } catch (const fault::FaultInjectedError&) {
  } catch (const std::bad_alloc&) {
  }
}

/// II walks in progress in this process. Each occupies the core its caller
/// runs on, so the helpers free for a new lookahead window are the helper
/// pool's workers plus one (the opening walk's own core) minus this count.
std::atomic<int> g_walks_running{0};

/// Holds one count of g_walks_running for its lifetime.
struct WalkSlot {
  WalkSlot() { g_walks_running.fetch_add(1, std::memory_order_relaxed); }
  ~WalkSlot() { g_walks_running.fetch_sub(1, std::memory_order_relaxed); }
  WalkSlot(const WalkSlot&) = delete;
  WalkSlot& operator=(const WalkSlot&) = delete;
};

}  // namespace

/// The one II walk behind map(), map_warm() and map_batch(): attempts
/// pinned to one II each (run_mapping_loop) from
/// max(mII, time.min_ii, refuted floor + 1) up to the ceiling, where a
/// feasible II commits only once every smaller II is resolved. The walk
/// owns the policy around the attempts — sound interval, walk-wide schedule
/// budget, anytime probe and degrade merge, fault retries, governor binding
/// (docs/robustness.md states the rules).
///
/// One claim loop runs the attempts. The caller (run()) claims the lowest
/// unclaimed II of the window [frontier, frontier + window], runs it and
/// resolves it until the walk is over, and waits when a helper holds every
/// II in the window. The window stays empty until the walk's first attempt
/// resolves without a mapping, so a walk that maps there never involves
/// another thread; then it opens to the walk's lookahead, and helper tasks
/// on the pool run the same loop, exiting when nothing is left to claim.
/// A queued helper may start after the walk returned: it owns the walk
/// through a shared_ptr and reads nothing but the claim state once the
/// walk is over, and the caller returns only after every attempt a helper
/// claimed has resolved (the commit cancels them).
class DecoupledMapper::IiWalk : public std::enable_shared_from_this<IiWalk> {
 public:
  /// map()'s lookahead: as many IIs as there are free helpers in the
  /// process-wide helper_pool() when the window opens.
  static constexpr int kFreeHelpers = -1;

  /// `lookahead` IIs above the frontier run on `pool` (kFreeHelpers: on
  /// helper_pool(), and `pool` is ignored).
  IiWalk(const DecoupledMapper& mapper, const Dfg& dfg, const CgraArch& arch,
         const Deadline& base, CrossIiNogoodStore* store, int refuted_floor,
         int lookahead, WorkStealingPool* pool)
      : mapper_(mapper),
        opt_(mapper.options_),
        dfg_(dfg),
        arch_(arch),
        base_(base),
        store_(store),
        gov_(GovernorScope::current()),
        mii_(compute_mii(dfg, arch)),
        ceiling_(opt_.time.max_ii > 0
                     ? opt_.time.max_ii
                     : std::max(mii_.mii(), std::max(1, dfg.num_nodes()))),
        // A walk-wide schedule budget makes every attempt's budget depend
        // on the work of the IIs below it, so such walks never speculate.
        lookahead_(opt_.max_schedules > 0 ? 0 : lookahead),
        pool_(pool),
        walk_top_(ceiling_),
        frontier_(std::max({mii_.mii(), opt_.time.min_ii, refuted_floor + 1})),
        // IIs below mII are refuted by the bound itself; the floor is sound
        // by contract.
        refuted_up_to_(std::max(refuted_floor, mii_.mii() - 1)) {}

  /// Run the walk on the calling thread, the anytime probe first. An
  /// exception that escaped an attempt the sequential walk would have run
  /// (AssertionError above all) is rethrown here once no helper is left
  /// in the walk.
  void run() {
    const WalkSlot slot;
    std::unique_lock<std::mutex> lock(m_);
    try {
      if (opt_.anytime && frontier_ <= ceiling_) {
        lock.unlock();
        MapResult r =
            attempt(ceiling_, base_.cancel_token(), /*schedules_spent=*/0);
        lock.lock();
        probe_ = std::move(r);
        if (probe_.success) {
          best_feasible_ = ceiling_;
          walk_top_ = ceiling_ - 1;
        }
        // A failed probe leaves no safety net: the walk covers the whole
        // range.
      }
      advance_locked();
      while (!over_locked()) {
        const int ii = claimable_locked();
        if (ii >= 0) {
          run_attempt_locked(lock, ii, /*helper=*/false);
          continue;
        }
        caller_waiting_ = true;
        cv_.wait(lock,
                 [this] { return over_locked() || claimable_locked() >= 0; });
        caller_waiting_ = false;
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      if (error_ == nullptr) error_ = std::current_exception();
      cancel_running_locked();
    }
    cv_.wait(lock, [this] { return helpers_running_ == 0; });
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

  /// The committed result, once the walk has run. If a worker failure left
  /// the walk uncommitted (a batch worker dropped its run() task), the
  /// accumulated effort ends the walk classified as a fault instead of
  /// asserting — batch siblings must not lose their results over it.
  MapResult take() {
    const std::lock_guard<std::mutex> lock(m_);
    if (!done_) {
      MapResult aborted = std::move(aggregate_);
      aborted.outcome = MapOutcome::kFault;
      aborted.failure_reason = "II walk aborted by a worker failure";
      aborted.causes.push_back(
          {"walk", "worker failed before the walk committed"});
      end_walk_locked(std::move(aborted));
    }
    // Governor telemetry, and the memory backstop: a tripped governor on a
    // non-success is a memory outcome even when the trip surfaced through
    // a generic timeout path.
    if (gov_ != nullptr) {
      final_.mem_peak_bytes = std::max(final_.mem_peak_bytes, gov_->peak());
      final_.mem_sheds += gov_->sheds();
      if (gov_->tripped()) {
        if (!final_.success && final_.outcome != MapOutcome::kCancelled) {
          final_.outcome = MapOutcome::kMemory;
        }
        final_.causes.push_back({"governor", gov_->trip_reason()});
      }
    }
    return std::move(final_);
  }

 private:
  struct Attempt {
    explicit Attempt(const CancelToken* parent) : token(parent) {}
    CancelToken token;  // parented to the caller's token, if any
    bool running = true;
    MapResult result;
    std::exception_ptr error;  // what escaped the attempt, if anything
  };

  /// A helper task: claim-or-skip, for as long as the window has work.
  void help() {
    std::unique_lock<std::mutex> lock(m_);
    --helpers_queued_;
    for (int ii = claimable_locked(); ii >= 0; ii = claimable_locked()) {
      run_attempt_locked(lock, ii, /*helper=*/true);
    }
  }

  /// One pinned attempt, on whatever thread runs it.
  MapResult attempt(int ii, const CancelToken* token,
                    int schedules_spent) const {
    // Helpers are other threads: bind the request's governor so the
    // attempt's solvers charge the shared budget.
    const GovernorScope scope(gov_);
    // The attempt shares the walk's wall budget (remaining as of its start
    // — both deadlines tick from the same instant) and carries its own
    // cancel token so a smaller feasible II can cut it individually.
    const Deadline deadline(base_.remaining_s(), token);
    // Fault containment: an injected fault (or allocation failure) escaping
    // the attempt abandons its state entirely — solvers may be mid-search —
    // and retries from scratch after a bounded backoff; one that outlives
    // the retry budget (or the deadline) becomes the attempt's verdict.
    // AssertionError is NOT caught: an invariant violation is a bug, not a
    // fault to retry.
    for (int retries = 0;; ++retries) {
      MapResult r;
      try {
        r = mapper_.run_mapping_loop(dfg_, arch_, ii, deadline, store_, mii_,
                                     schedules_spent);
        r.fault_retries += retries;
        return r;
      } catch (const fault::FaultInjectedError& e) {
        r.outcome = MapOutcome::kFault;
        r.failure_reason = std::string("injected fault: ") + e.what();
        r.causes.push_back({e.site(), "injected fault"});
      } catch (const std::bad_alloc&) {
        r.outcome = MapOutcome::kMemory;
        r.failure_reason = "allocation failure";
        r.causes.push_back({"alloc", "allocation failure"});
      }
      if (retries >= opt_.max_fault_retries ||
          !fault::backoff_sleep(deadline, retries)) {
        r.fault_retries = retries;
        r.outcome = cut_short(deadline, r.outcome);
        return r;
      }
    }
  }

  /// The walk committed, or an attempt it needed threw. m_ held.
  bool over_locked() const { return done_ || error_ != nullptr; }

  /// Lowest II of the window [frontier, frontier + window] nobody has
  /// claimed, never above the walk's top or an already-feasible II; -1 when
  /// there is none or the walk is over. Reads only the claim state. m_ held.
  int claimable_locked() const {
    if (over_locked()) return -1;
    for (int ii = frontier_; ii <= window_top_locked(); ++ii) {
      if (attempts_.count(ii) == 0) return ii;
    }
    return -1;
  }

  int window_top_locked() const {
    const int top = std::min(frontier_ + window_, walk_top_);
    return best_feasible_ >= 0 ? std::min(top, best_feasible_ - 1) : top;
  }

  /// Claim `ii`, run its attempt with m_ released and resolve it. m_ held
  /// on entry and on return.
  void run_attempt_locked(std::unique_lock<std::mutex>& lock, int ii,
                          bool helper) {
    // The walk's schedule budget is spent by the IIs below (exact: with a
    // budget only the frontier runs).
    const int spent = aggregate_.schedules_tried;
    Attempt& a = attempts_.try_emplace(ii, base_.cancel_token()).first->second;
    if (helper) ++helpers_running_;
    top_up_locked();
    lock.unlock();
    MapResult r;
    std::exception_ptr error;
    try {
      r = attempt(ii, &a.token, spent);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (helper) --helpers_running_;
    a.result = std::move(r);
    a.error = std::move(error);
    a.running = false;
    if (a.error == nullptr && a.result.success &&
        (best_feasible_ < 0 || ii < best_feasible_)) {
      best_feasible_ = ii;
      // Larger IIs can no longer win — cancel them; smaller ones keep
      // running, the commit rule still needs their refutations.
      for (auto& [other_ii, other] : attempts_) {
        if (other_ii > ii && other.running) other.token.cancel();
      }
    }
    advance_locked();
    cv_.notify_all();
  }

  /// Queue helper tasks for the claimable IIs that no queued helper or
  /// waiting caller is about to take. A task that fails to queue, or that
  /// the pool drops, leaves its II to the caller. m_ held.
  void top_up_locked() {
    if (pool_ == nullptr) return;
    int unclaimed = 0;
    for (int ii = frontier_; ii <= window_top_locked(); ++ii) {
      unclaimed += static_cast<int>(attempts_.count(ii) == 0);
    }
    for (int spare = unclaimed - helpers_queued_ - (caller_waiting_ ? 1 : 0);
         spare > 0; --spare) {
      try {
        pool_->submit([self = shared_from_this()] { self->help(); });
      } catch (...) {
        return;
      }
      ++helpers_queued_;
    }
  }

  /// The first attempt resolved without a mapping and the walk goes on:
  /// from now on the IIs above the frontier may run on helpers. m_ held.
  void open_window_locked() {
    if (window_opened_) return;
    window_opened_ = true;
    if (lookahead_ == kFreeHelpers) {
      pool_ = helper_pool();
      if (pool_ != nullptr) {
        window_ = std::max(0, pool_->num_threads() + 1 -
                                  g_walks_running.load(
                                      std::memory_order_relaxed));
      }
    } else if (pool_ != nullptr) {
      window_ = std::max(lookahead_, 0);
    }
  }

  // Walk the frontier over resolved attempts and end the walk when its
  // verdict is final. m_ held.
  void advance_locked() {
    while (!over_locked()) {
      if (frontier_ > walk_top_) {
        // Nothing to walk: mII (or the floor) is already past the range,
        // or the held probe sits at the start II.
        MapResult none;
        none.failure_reason = "time search exhausted up to max II";
        none.causes.push_back({"time", "search space exhausted"});
        end_walk_locked(std::move(none));
        return;
      }
      const auto it = attempts_.find(frontier_);
      if (it == attempts_.end() || it->second.running) return;
      Attempt& a = it->second;
      if (a.error != nullptr) {
        // The sequential walk would have thrown here too.
        error_ = a.error;
        cancel_running_locked();
        return;
      }
      if (a.result.success) {
        // Every II below the frontier is resolved — this is THE minimal
        // feasible II of the walk.
        MapResult r = std::move(a.result);
        merge_attempt_counters(r, aggregate_);
        merge_attempt_counters(r, probe_);
        commit_locked(std::move(r));
        return;
      }
      if (a.result.outcome == MapOutcome::kRefuted) {
        if (a.result.sound_refutation && frontier_ == refuted_up_to_ + 1) {
          refuted_up_to_ = frontier_;
        }
        if (frontier_ < walk_top_) {
          merge_attempt_counters(aggregate_, a.result);
          ++frontier_;
          open_window_locked();
          continue;
        }
      }
      // Cut short (deadline, budget, memory, fault, cancel), or refuted at
      // the top: the walk ends with this attempt's verdict. The frontier is
      // never cancelled by us — only IIs above a feasible one are.
      MapResult walk = std::move(a.result);
      merge_attempt_counters(walk, aggregate_);
      end_walk_locked(std::move(walk));
      return;
    }
  }

  // The walk stopped without a feasible frontier, `walk` being its verdict
  // and effort. Under anytime the held mapping ships instead, degraded
  // unless every II below it is soundly refuted. Cancellation never
  // degrades: the caller asked this run to stop producing, not for its
  // best effort so far. m_ held.
  void end_walk_locked(MapResult walk) {
    if (!opt_.anytime || best_feasible_ < 0 ||
        walk.outcome == MapOutcome::kCancelled) {
      merge_attempt_counters(walk, probe_);
      commit_locked(std::move(walk));
      return;
    }
    const bool from_probe = probe_.success && best_feasible_ == ceiling_;
    MapResult held =
        std::move(from_probe ? probe_ : attempts_.at(best_feasible_).result);
    merge_attempt_counters(held, walk);
    if (!from_probe) merge_attempt_counters(held, probe_);
    if (refuted_up_to_ < best_feasible_ - 1) {
      held.outcome = MapOutcome::kDegraded;
      held.failure_reason = walk.failure_reason;
      held.causes = walk.causes;
      held.causes.push_back(
          {"anytime", "walk below the held mapping was cut short"});
    }
    commit_locked(std::move(held));
  }

  void commit_locked(MapResult r) {
    MONOMAP_ASSERT(r.success == (r.outcome == MapOutcome::kFeasible ||
                                 r.outcome == MapOutcome::kDegraded));
    r.mii = mii_;
    r.ii_refuted_up_to = refuted_up_to_;
    r.ii_lo = std::max(1, refuted_up_to_ + 1);
    r.ii_hi = r.success ? r.ii : 0;
    r.sound_refutation =
        r.outcome == MapOutcome::kRefuted && refuted_up_to_ >= ceiling_;
    r.total_s = r.time_phase_s + r.space_phase_s;
    cancel_running_locked();
    final_ = std::move(r);
    done_ = true;
  }

  void cancel_running_locked() {
    for (auto& [ii, a] : attempts_) {
      if (a.running) a.token.cancel();
    }
  }

  const DecoupledMapper& mapper_;
  const DecoupledMapperOptions& opt_;
  const Dfg& dfg_;
  const CgraArch& arch_;
  const Deadline& base_;
  CrossIiNogoodStore* const store_;
  ResourceGovernor* const gov_;  // request governor, rebound on each helper
  const MiiBreakdown mii_;       // computed once per walk
  const int ceiling_;            // inclusive II ceiling, the probe's II
  const int lookahead_;          // IIs a helper may run beyond the frontier

  // Everything below is the claim state, guarded by m_.
  std::mutex m_;
  std::condition_variable cv_;  // an attempt resolved
  WorkStealingPool* pool_;      // where helpers run; null: caller only
  bool window_opened_ = false;
  int window_ = 0;  // IIs claimable beyond the frontier
  std::map<int, Attempt> attempts_;
  int helpers_queued_ = 0;   // helper tasks queued and not yet started
  int helpers_running_ = 0;  // attempts a helper claimed, not yet resolved
  bool caller_waiting_ = false;
  int walk_top_;       // highest II the walk itself visits
  int frontier_;       // lowest unresolved II
  // Largest II such that every II up to it is soundly refuted (heuristic
  // give-ups never extend it).
  int refuted_up_to_;
  int best_feasible_ = -1;  // smallest II with a held feasible mapping
  MapResult probe_;         // the anytime probe's result (empty without)
  // Effort counters of the refuted IIs the frontier walked over, merged in
  // ascending II order (cancelled speculative losers above the final II
  // are deliberately excluded — they are wall-clock, not work the answer
  // needed).
  MapResult aggregate_;
  MapResult final_;
  bool done_ = false;
  std::exception_ptr error_;  // rethrown by run() instead of a commit
};

MapResult DecoupledMapper::map(const Dfg& dfg, const CgraArch& arch) const {
  return map(dfg, arch, default_deadline(options_));
}

MapResult DecoupledMapper::map(const Dfg& dfg, const CgraArch& arch,
                               const Deadline& deadline) const {
  return map_warm(dfg, arch, deadline);
}

MapResult DecoupledMapper::map_at_ii(const Dfg& dfg, const CgraArch& arch,
                                     int ii, const Deadline& deadline,
                                     CrossIiNogoodStore* store) const {
  MapResult result = run_mapping_loop(dfg, arch, ii, deadline, store,
                                      compute_mii(dfg, arch),
                                      /*schedules_spent=*/0);
  result.ii_lo = std::max(1, result.ii_refuted_up_to + 1);
  result.ii_hi = result.success ? result.ii : 0;
  return result;
}

MapResult DecoupledMapper::map_warm(const Dfg& dfg, const CgraArch& arch,
                                    const Deadline& deadline,
                                    CrossIiNogoodStore* store,
                                    int refuted_floor) const {
  return walk(dfg, arch, deadline, store, refuted_floor, /*race=*/true);
}

MapResult DecoupledMapper::walk(const Dfg& dfg, const CgraArch& arch,
                                const Deadline& deadline,
                                CrossIiNogoodStore* store, int refuted_floor,
                                bool race) const {
  const std::unique_ptr<ResourceGovernor> gov =
      make_request_governor(options_.memory_budget_mb);
  const GovernorScope scope(gov.get());
  // Race the IIs above the frontier on idle cores only where that cannot
  // move the answer: when certificates flow between attempts, or attempts
  // share a memory budget, what an attempt sees depends on timing.
  race = race && store == nullptr && GovernorScope::current() == nullptr;
  const auto ii_walk = std::make_shared<IiWalk>(
      *this, dfg, arch, deadline, store, std::max(0, refuted_floor),
      race ? IiWalk::kFreeHelpers : 0, /*pool=*/nullptr);
  ii_walk->run();
  return ii_walk->take();
}

MapResult DecoupledMapper::run_mapping_loop(const Dfg& dfg,
                                           const CgraArch& arch, int ii,
                                           const Deadline& deadline,
                                           CrossIiNogoodStore* store,
                                           const MiiBreakdown& mii,
                                           int schedules_spent) const {
  MapResult result;
  result.mii = mii;
  TimeSolverOptions time_options = options_.time;
  if (options_.space.model == MrrgModel::kConsecutiveOnly) {
    // Restricted interconnect: keep the time search consistent with the
    // space model, or every schedule with a long slot span would be
    // rejected in space.
    time_options.constraints.consecutive_slots = true;
  }
  // Pin the time search to exactly this II. (An ii below mII comes back
  // refuted immediately: the solver clamps its start to mII, which then
  // exceeds max_ii — correct, since no schedule exists there.)
  time_options.min_ii = ii;
  time_options.max_ii = ii;
  TimeSolver time_solver(dfg, arch, time_options, mii);
  // Certificate channel (store != nullptr): the drain position in the
  // shared store and the local snapshot the schedule prefilter scans.
  std::size_t cursor = 0;
  std::vector<SlotPartitionCert> certs;

  Stopwatch phase;
  const std::uint64_t base_budget = options_.space.max_backtracks;
  std::uint64_t budget = base_budget;
  // Failures at the current II, by what they taught us: uninformative ones
  // (truncations, and refutations whose conflict set spans most of the
  // DFG — their nogood prunes almost nothing) burn the II's retry budget;
  // narrow refutations are progress (each prunes a whole schedule family)
  // and only a generous separate cap bounds them.
  int uninformative_at_current_ii = 0;
  int narrow_refutations_at_current_ii = 0;
  bool refuted_at_current_ii = false;  // any complete refutation at this II
  bool probed_at_current_ii = false;   // last-chance probe already granted
  // Sound refutation: the II counts as refuted only when its time search
  // exhausted naturally (never via the retry caps — they are heuristics)
  // AND no space search at it was truncated: every schedule was either
  // fully refuted in space or pruned by a sound nogood/prefilter
  // certificate.
  bool exhausted = false;
  bool truncated_at_current_ii = false;
  for (;;) {
    if (options_.max_schedules > 0 &&
        schedules_spent + result.schedules_tried >= options_.max_schedules) {
      // Deterministic work budget: unlike a wall deadline this trips at a
      // bit-reproducible point, so degraded anytime results are replayable.
      result.outcome = MapOutcome::kDeadline;
      result.failure_reason = "schedule budget exhausted";
      result.causes.push_back({"budget", "schedule budget exhausted"});
      break;
    }
    if (store != nullptr) {
      // Pull certificates the other IIs learned since the last look:
      // instantiate their cyclic-rotation clauses into this II's solver
      // (warm start — see CrossIiNogoodStore) and extend the local
      // snapshot the prefilter below scans. Own-II certificates skip the
      // clause step: add_space_nogood already lifted their rotations here.
      std::vector<SlotPartitionCert> fresh;
      store->drain(&cursor, &fresh);
      for (SlotPartitionCert& cert : fresh) {
        if (cert.source_ii != ii) {
          for (auto& rotation : instantiate_rotations(cert, ii)) {
            time_solver.add_cross_ii_nogood(std::move(rotation));
          }
        }
        certs.push_back(std::move(cert));
      }
    }
    phase.restart();
    const std::optional<TimeSolution> schedule = time_solver.next(deadline);
    result.time_phase_s += phase.elapsed_s();
    if (!schedule.has_value()) {
      if (!time_solver.timed_out()) {
        exhausted = true;
        result.failure_reason = "time search exhausted up to max II";
        result.causes.push_back({"time", "search space exhausted"});
      } else if (time_solver.memory_out()) {
        result.outcome = cut_short(deadline, MapOutcome::kMemory);
        result.failure_reason = "time search exceeded the memory budget";
        result.causes.push_back({"time", "memory budget exceeded"});
      } else {
        result.outcome = cut_short(deadline, MapOutcome::kDeadline);
        result.failure_reason = "time search hit the deadline";
      }
      break;
    }
    ++result.schedules_tried;

    std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      labels[static_cast<std::size_t>(v)] = schedule->label(v);
    }
    phase.restart();
    // Cross-II certificate prefilter: a schedule realising (or coarsening)
    // a stored refutation partition is spatially infeasible — synthesise
    // the refutation another II already paid for instead of searching.
    // The synthetic SpaceResult then flows through the exact policy path a
    // real refutation takes (nogood feedback, narrow/wide classification,
    // budget adaptation, retry caps).
    bool prefilter_hit = false;
    SpaceResult space;
    if (store != nullptr) {
      for (const SlotPartitionCert& cert : certs) {
        if (cert_hits_labels(cert, labels)) {
          prefilter_hit = true;
          ++result.speculative_hits;
          space.found = false;
          space.failure_reason = "cross-II certificate prefilter";
          space.shallowest_retreat = 0;
          for (const auto& block : cert.blocks) {
            space.conflict_nodes.insert(space.conflict_nodes.end(),
                                        block.begin(), block.end());
          }
          break;
        }
      }
    }
    if (!prefilter_hit) {
      SpaceOptions space_options = options_.space;
      if (options_.adaptive_space_budget) {
        space_options.max_backtracks = budget;
      } else if (uninformative_at_current_ii +
                         narrow_refutations_at_current_ii >
                     0 &&
                 space_options.max_backtracks != 0) {
        // Historical flat policy: the first schedule at an II gets the full
        // search effort, retries a quarter.
        space_options.max_backtracks =
            std::max<std::uint64_t>(space_options.max_backtracks / 4, 4096);
      }
      space = find_monomorphism(dfg, arch, labels, schedule->ii,
                                space_options, deadline);
    }
    result.space_phase_s += phase.elapsed_s();
    result.space_backjumps += space.backjumps;
    result.last_space = space;

    if (space.found) {
      result.success = true;
      result.outcome = MapOutcome::kFeasible;
      result.ii = schedule->ii;
      result.mapping = Mapping(schedule->ii, schedule->time, space.pe);
      // The decoupling invariant: every returned mapping is valid.
      const auto violations =
          validate_mapping(dfg, arch, result.mapping, options_.space.model);
      MONOMAP_ASSERT_MSG(violations.empty(),
                         "mapper produced invalid mapping: "
                             << violations.front().what);
      break;
    }
    if (space.memory_out) {
      result.outcome = cut_short(deadline, MapOutcome::kMemory);
      result.failure_reason = "space search exceeded the memory budget";
      result.causes.push_back({"space", "memory budget exceeded"});
      break;
    }
    if (space.deadline_expired) {
      result.outcome = cut_short(deadline, MapOutcome::kDeadline);
      result.failure_reason = "space search hit the deadline";
      break;
    }
    // No monomorphism for this labelling (or the backtrack budget decided
    // to stop looking): block it and retry. A complete refutation carries
    // a conflict explanation — a node subset that can never co-occupy
    // these slots — fed back as a time-phase nogood so the time search
    // skips every schedule repeating those placements, not just this
    // label vector. Truncated searches learned nothing; only they count
    // toward giving the II up, and the adaptive budget decides how much
    // to spend on the next one from how this one died.
    if (!space.timed_out && !space.conflict_nodes.empty()) {
      time_solver.add_space_nogood(*schedule, space.conflict_nodes);
      if (store != nullptr && !prefilter_hit) {
        // Publish the refutation for the other IIs (the prefilter's own
        // hits are already in the store — they came from it).
        store->add(ii, space.conflict_nodes, labels);
      }
    }
    const bool narrow_conflict =
        !space.timed_out &&
        static_cast<int>(space.conflict_nodes.size()) * 2 <=
            dfg.num_nodes();
    if (space.truncated) {
      ++result.space_truncated;
      ++uninformative_at_current_ii;
      // A truncated space search proves nothing about this II: it can
      // never enter the sound refuted interval.
      truncated_at_current_ii = true;
    } else {
      ++result.space_exhausted;
      refuted_at_current_ii = true;
      if (narrow_conflict) {
        ++narrow_refutations_at_current_ii;
      } else {
        ++uninformative_at_current_ii;
      }
    }
    if (options_.adaptive_space_budget && base_budget != 0) {
      const double retreat_fraction =
          dfg.num_nodes() > 0
              ? static_cast<double>(space.shallowest_retreat) /
                    dfg.num_nodes()
              : 1.0;
      if (space.truncated &&
          retreat_fraction >= options_.near_miss_depth_fraction) {
        // Near-miss: every conflict so far stayed confined near the
        // leaves — the shallow decisions were never implicated, so a
        // deeper look may finish the job.
        const std::uint64_t cap =
            base_budget *
            std::max<std::uint64_t>(options_.max_space_budget_boost, 1);
        if (budget < cap) {
          budget = std::min(budget * 2, cap);
          ++result.budget_extensions;
        }
      } else if (narrow_conflict) {
        // Narrow refutation: the conflict channel is pruning whole
        // schedule families — restore full effort for the next family.
        budget = base_budget;
      } else {
        // Shallow truncation or wide refutation: the failure implicates
        // the earliest placements (or all of them) — this schedule family
        // dies early and wide, so stop paying full price to re-learn
        // that. The default divisor of 2 is deliberately cautious: it
        // keeps mid-sized probes alive for schedules that are placeable
        // but need some search (with 8 retries the budget reaches ~1% of
        // base, not the floor); raise space_budget_shrink_divisor to kill
        // dead-II mills faster.
        const std::uint64_t floor =
            std::min(options_.min_space_backtracks, base_budget);
        const std::uint64_t divisor =
            std::max<std::uint64_t>(options_.space_budget_shrink_divisor, 2);
        if (budget / divisor >= floor) {
          budget /= divisor;
          ++result.budget_shrinks;
        } else if (budget > floor) {
          budget = floor;
          ++result.budget_shrinks;
        }
      }
    }
    MONOMAP_DEBUG("space failed at II="
                  << schedule->ii << " (" << space.failure_reason << ") in "
                  << space.seconds << "s, " << space.backtracks
                  << " backtracks, depth " << space.shallowest_retreat << ".."
                  << space.max_depth << "/" << dfg.num_nodes()
                  << ", conflict " << space.conflict_nodes.size()
                  << " nodes; uninformative " << uninformative_at_current_ii
                  << ", narrow " << narrow_refutations_at_current_ii
                  << ", next budget " << budget);
    const bool out_of_retries =
        options_.max_space_retries_per_ii > 0 &&
        uninformative_at_current_ii >= options_.max_space_retries_per_ii;
    const bool out_of_refutations =
        options_.max_space_refutations_per_ii > 0 &&
        narrow_refutations_at_current_ii >=
            options_.max_space_refutations_per_ii;
    if (out_of_retries || out_of_refutations) {
      if (out_of_retries && !out_of_refutations &&
          options_.last_chance_probe && options_.adaptive_space_budget &&
          !probed_at_current_ii && !refuted_at_current_ii &&
          base_budget != 0 && budget < base_budget) {
        // Every failure here was a truncation and the budget had shrunk:
        // the II's feasibility is genuinely unknown and the last few
        // schedules were starved. One full-budget schedule before giving
        // the II up — this is what keeps cfd on 5x5 at II 6 instead of
        // drifting to 8 when the shrink sequence outruns the placeable
        // schedule.
        probed_at_current_ii = true;
        budget = base_budget;
        ++result.budget_probes;
        MONOMAP_DEBUG("last-chance probe at II=" << schedule->ii);
        continue;
      }
      // Giving the II up by retry-cap heuristic is NOT a refutation:
      // schedules at it may remain untried, so it never counts as sound.
      result.failure_reason = "space search failed for every II up to max";
      MONOMAP_DEBUG("giving up II=" << ii);
      break;
    }
  }
  result.time_stats = time_solver.stats();
  result.total_s = result.time_phase_s + result.space_phase_s;
  // Publish the sound interval. Every attempt knows the [1, mII) bound; a
  // sound refutation at mII itself extends it. An attempt above mII
  // cannot claim the IIs below it — it never looked at them — so its own
  // verdict travels via sound_refutation, which the walk chains.
  result.sound_refutation = exhausted && !truncated_at_current_ii;
  result.ii_refuted_up_to =
      result.sound_refutation && ii == mii.mii() ? ii : mii.mii() - 1;
  return result;
}

std::vector<MapResult> DecoupledMapper::map_batch(
    const std::vector<const Dfg*>& dfgs, const CgraArch& arch,
    int num_threads) const {
  // One budget for the whole batch. Historically every item silently got
  // its own full options_.timeout_s, so a batch could run items * timeout.
  return map_batch(dfgs, arch, default_deadline(options_), num_threads);
}

std::vector<MapResult> DecoupledMapper::map_batch(
    const std::vector<const Dfg*>& dfgs, const CgraArch& arch,
    const Deadline& deadline, int num_threads, BatchStats* stats) const {
  std::vector<MapResult> results(dfgs.size());
  if (stats != nullptr) *stats = BatchStats{};
  if (dfgs.empty()) return results;
  if (num_threads == 1) {
    // Sequential reference path: every case runs the plain map() in order.
    for (std::size_t i = 0; i < dfgs.size(); ++i) {
      results[i] = map(*dfgs[i], arch, deadline);
    }
  } else {
    // Pooled path: every case becomes a pool task running a walk with
    // lookahead 1, whose helpers are tasks on the same pool. A hard case
    // decomposes into subtasks the other workers steal, instead of pinning
    // one thread for the whole batch. No certificate sharing: batch results
    // stay bit-exactly what the per-case sequential map() would return
    // (certificates arriving from racing IIs change the SAT enumeration
    // order, which can move the committed II).
    const std::unique_ptr<ResourceGovernor> gov =
        make_request_governor(options_.memory_budget_mb);
    const GovernorScope scope(gov.get());
    WorkStealingPool pool(clamp_pool_threads(num_threads));
    std::vector<std::shared_ptr<IiWalk>> walks;
    for (const Dfg* dfg : dfgs) {
      walks.push_back(std::make_shared<IiWalk>(*this, *dfg, arch, deadline,
                                               nullptr, 0, 1, &pool));
      pool.submit([walk = walks.back()] { walk->run(); });
    }
    drain_pool(pool);
    for (std::size_t i = 0; i < walks.size(); ++i) {
      results[i] = walks[i]->take();
    }
    if (stats != nullptr) {
      stats->steals = pool.steals();
      stats->fault_requeues = pool.fault_requeues();
    }
  }
  if (stats != nullptr) {
    for (const MapResult& r : results) {
      ++stats->outcome_counts[static_cast<std::size_t>(r.outcome)];
    }
  }
  return results;
}

}  // namespace monomap
