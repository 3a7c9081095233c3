#include "timing/time_solver.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace monomap {

TimeSolver::TimeSolver(const Dfg& dfg, const CgraArch& arch,
                       TimeSolverOptions options)
    : TimeSolver(dfg, arch, options, compute_mii(dfg, arch)) {}

TimeSolver::TimeSolver(const Dfg& dfg, const CgraArch& arch,
                       TimeSolverOptions options, const MiiBreakdown& mii)
    : dfg_(dfg),
      arch_(arch),
      options_(options),
      mii_(mii),
      max_ii_(options.max_ii > 0
                  ? options.max_ii
                  : std::max(mii_.mii(), std::max(1, dfg.num_nodes()))),
      ii_(std::max(mii_.mii(), options.min_ii)) {
  MONOMAP_ASSERT(dfg.num_nodes() > 0);
}

TimeSolver::~TimeSolver() = default;

void TimeSolver::enter_next_ii() {
  session_.reset();
  ii_nogoods_.clear();
  seen_nogoods_.clear();
  instance_ok_ = false;
  reseed_salt_ = 0;
  ++ii_;
}

bool TimeSolver::advance_instance() {
  for (;;) {
    if (ii_ > max_ii_) return false;
    if (!session_) {
      session_ = std::make_unique<TimeSession>(dfg_, arch_, ii_,
                                               options_.constraints);
      extension_ = 0;
      ++stats_.sessions_created;
      ++stats_.instances_built;
      // Arm the cross-II nogoods injected before the session existed.
      for (const auto& nogood : ii_nogoods_) {
        session_->add_label_nogood(nogood);
      }
      ii_nogoods_.clear();
    } else {
      if (extension_ >= options_.max_horizon_extension) {
        enter_next_ii();
        continue;
      }
      ++extension_;
      ++stats_.horizon_extensions;
      ++stats_.instances_built;
      session_->extend_horizon();
    }
    if (session_->ok()) {
      instance_ok_ = true;
      stats_.last_formulation = session_->stats();
      return true;
    }
    // The session's formula died without assumptions: every further
    // extension is a superset, so the whole II is exhausted.
    enter_next_ii();
  }
}

bool TimeSolver::add_space_nogood(const TimeSolution& solution,
                                  const std::vector<NodeId>& nodes) {
  if (solution.ii != ii_ || nodes.empty()) return false;
  std::vector<std::pair<NodeId, int>> placements;
  placements.reserve(nodes.size());
  for (const NodeId v : nodes) {
    placements.emplace_back(v, solution.label(v));
  }
  // A conflict already covered by a recorded one (directly or as a
  // rotation of it) adds nothing — every rotation of every recorded
  // conflict sits in seen_nogoods_.
  if (seen_nogoods_.count(placements) != 0) {
    ++stats_.nogoods_deduped;
    return true;
  }
  ++stats_.nogoods_added;
  if (static_cast<int>(nodes.size()) < dfg_.num_nodes()) {
    ++stats_.narrow_nogoods;
  }
  // Lift the conflict to all cyclic slot rotations: spatial feasibility
  // depends only on the slot partition (and, in the consecutive-only
  // model, on cyclic label distances — also rotation-invariant), so every
  // rotation of an unplaceable placement set is unplaceable too.
  for (int k = 0; k < ii_; ++k) {
    std::vector<std::pair<NodeId, int>> rotated;
    rotated.reserve(placements.size());
    for (const auto& [v, slot] : placements) {
      rotated.emplace_back(v, (slot + k) % ii_);
    }
    if (!seen_nogoods_.insert(rotated).second) continue;
    if (k > 0) ++stats_.nogoods_lifted;
    if (session_) session_->add_label_nogood(rotated);
  }
  // A nogood whose placements all appear in the pending solution subsumes
  // the blocking clause next() would add for it.
  if (last_solution_.has_value() && last_solution_->ii == solution.ii) {
    bool covers = true;
    for (const NodeId v : nodes) {
      if (last_solution_->label(v) != solution.label(v)) {
        covers = false;
        break;
      }
    }
    if (covers) last_blocked_by_nogood_ = true;
  }
  return true;
}

void TimeSolver::add_cross_ii_nogood(
    std::vector<std::pair<NodeId, int>> placements) {
  if (placements.empty()) return;
  for (const auto& [v, slot] : placements) {
    MONOMAP_ASSERT(v >= 0 && v < dfg_.num_nodes());
    MONOMAP_ASSERT(slot >= 0 && slot < ii_);
  }
  // Canonical node order so identical instantiations from different
  // certificates (or repeated drains) dedupe against each other.
  std::sort(placements.begin(), placements.end());
  if (!seen_nogoods_.insert(placements).second) return;
  ++stats_.nogoods_lifted_cross_ii;
  if (session_) {
    session_->add_label_nogood(placements);
  } else {
    ii_nogoods_.push_back(std::move(placements));
  }
}

std::optional<TimeSolution> TimeSolver::next(const Deadline& deadline) {
  // Block the previously yielded solution so the search moves on (unless a
  // space-conflict nogood already subsumes it).
  if (last_solution_.has_value() && instance_ok_) {
    if (!last_blocked_by_nogood_) session_->block_labels(*last_solution_);
    // The caller rejected the previous schedule (a space failure):
    // re-seed the warm session's phases with a rotated preference so the
    // next model comes from a structurally different schedule family
    // instead of phase saving drifting to the nearest neighbour of the
    // blocked one (drift-only retries lose an II level on cfd).
    session_->reseed_phases(++reseed_salt_);
  }
  last_solution_.reset();
  last_blocked_by_nogood_ = false;

  for (;;) {
    if (deadline.expired()) {
      timed_out_ = true;
      return std::nullopt;
    }
    if (!instance_ok_) {
      if (!advance_instance()) {
        return std::nullopt;
      }
      continue;
    }
    ++stats_.sat_calls;
    ++stats_.assumptions_used;  // one horizon selector per call
    const SatStatus status = session_->solve(deadline);
    stats_.learnt_retained = session_->num_learnts();
    stats_.last_formulation = session_->stats();
    if (status == SatStatus::kSat) {
      TimeSolution solution = session_->extract();
      MONOMAP_DEBUG("time solution at II=" << ii_ << " horizon="
                                           << solution.horizon);
      last_solution_ = solution;
      ++stats_.solutions_yielded;
      stats_.final_ii = ii_;
      return solution;
    }
    if (status == SatStatus::kUnknown) {
      timed_out_ = true;
      if (session_->last_solve_memory_out()) memory_out_ = true;
      return std::nullopt;
    }
    // UNSAT: exhaust this instance, move on. A refutation that did not
    // rest on the horizon selector exhausts the whole II at once.
    instance_ok_ = false;
    if (session_->unsat_is_final()) enter_next_ii();
  }
}

}  // namespace monomap
