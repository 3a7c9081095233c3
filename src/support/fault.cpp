#include "support/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

namespace monomap::fault {

namespace {

/// splitmix64 — the seed/site mix that places each rule's firing phase.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_site(const std::string& site) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// An armed plan plus its per-rule arrival counters. Readers access it via
/// an atomic pointer with no lock, so a replaced plan is never freed (a
/// freed plan under a concurrent reader would be a use-after-free); installs
/// are rare — tests and process start — so keeping every plan is cheap.
struct ActivePlan {
  std::vector<FaultRule> rules;
  std::vector<std::uint64_t> phases;  // seeded firing phase per rule
  std::unique_ptr<std::atomic<std::uint64_t>[]> counters;
  std::atomic<std::uint64_t> fired{0};

  explicit ActivePlan(const FaultPlan& plan) : rules(plan.rules) {
    phases.reserve(rules.size());
    counters = std::make_unique<std::atomic<std::uint64_t>[]>(rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const std::uint64_t period = rules[i].period == 0 ? 1 : rules[i].period;
      rules[i].period = period;
      phases.push_back(mix64(plan.seed ^ hash_site(rules[i].site)) % period);
      counters[i].store(0, std::memory_order_relaxed);
    }
  }
};

std::atomic<ActivePlan*> g_plan{nullptr};
std::atomic<bool> g_env_resolved{false};
std::mutex g_install_m;

/// Owner of every plan ever armed, guarded by g_install_m. The list itself
/// is never destroyed, so retired plans stay reachable (not leaked) for
/// the life of the process.
std::vector<std::unique_ptr<ActivePlan>>& armed_plans() {
  static auto* const plans = new std::vector<std::unique_ptr<ActivePlan>>();
  return *plans;
}

void install_locked(const FaultPlan* plan) {
  ActivePlan* next = nullptr;
  if (plan != nullptr && !plan->rules.empty()) {
    armed_plans().push_back(std::make_unique<ActivePlan>(*plan));
    next = armed_plans().back().get();
  }
  g_plan.store(next, std::memory_order_release);
  g_env_resolved.store(true, std::memory_order_release);
}

/// First maybe_inject/faults_active call with no explicit install: arm
/// whatever MONOMAP_FAULTS says (nothing when unset or malformed).
void resolve_env() {
  const std::lock_guard<std::mutex> lock(g_install_m);
  if (g_env_resolved.load(std::memory_order_acquire)) return;
  const char* env = std::getenv("MONOMAP_FAULTS");
  std::optional<FaultPlan> plan;
  if (env != nullptr && *env != '\0') plan = parse_fault_spec(env);
  install_locked(plan.has_value() ? &*plan : nullptr);
}

ActivePlan* current_plan() {
  if (!g_env_resolved.load(std::memory_order_acquire)) resolve_env();
  return g_plan.load(std::memory_order_acquire);
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThrow: return "throw";
    case FaultKind::kStall: return "stall";
    case FaultKind::kAlloc: return "alloc";
  }
  return "?";
}

std::optional<FaultPlan> parse_fault_spec(const std::string& spec,
                                          std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<FaultPlan> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  FaultPlan plan;
  std::string rules_part = spec;
  // The seed separator is the LAST ':' — site names contain '.' but never
  // ':', so this is unambiguous.
  if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
    const std::string seed_str = spec.substr(colon + 1);
    if (seed_str.empty()) return fail("empty seed after ':'");
    char* end = nullptr;
    plan.seed = std::strtoull(seed_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return fail("seed is not a decimal integer: '" + seed_str + "'");
    }
    rules_part = spec.substr(0, colon);
  }
  std::size_t pos = 0;
  while (pos <= rules_part.size()) {
    const std::size_t comma = rules_part.find(',', pos);
    const std::string item = rules_part.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? rules_part.size() + 1 : comma + 1;
    if (item.empty()) {
      if (rules_part.empty() && plan.rules.empty()) break;  // bare ":seed"
      return fail("empty rule in spec");
    }
    const std::size_t eq = item.find('=');
    const std::size_t at = item.find('@');
    if (eq == std::string::npos || at == std::string::npos || at < eq) {
      return fail("rule '" + item + "' is not site=kind@period");
    }
    FaultRule rule;
    rule.site = item.substr(0, eq);
    if (rule.site.empty()) return fail("empty site in '" + item + "'");
    const std::string kind = item.substr(eq + 1, at - eq - 1);
    if (kind == "throw") rule.kind = FaultKind::kThrow;
    else if (kind == "stall") rule.kind = FaultKind::kStall;
    else if (kind == "alloc") rule.kind = FaultKind::kAlloc;
    else return fail("unknown fault kind '" + kind + "'");
    const std::string period_str = item.substr(at + 1);
    char* end = nullptr;
    rule.period = std::strtoull(period_str.c_str(), &end, 10);
    if (period_str.empty() || end == nullptr || *end != '\0' ||
        rule.period == 0) {
      return fail("period must be a positive integer in '" + item + "'");
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

void install_faults(const FaultPlan& plan) {
  const std::lock_guard<std::mutex> lock(g_install_m);
  install_locked(&plan);
}

void clear_faults() {
  const std::lock_guard<std::mutex> lock(g_install_m);
  install_locked(nullptr);
}

bool faults_active() { return current_plan() != nullptr; }

void maybe_inject(const char* site) {
  ActivePlan* plan = current_plan();
  if (plan == nullptr) return;
  for (std::size_t i = 0; i < plan->rules.size(); ++i) {
    const FaultRule& rule = plan->rules[i];
    if (rule.site != site) continue;
    const std::uint64_t n =
        plan->counters[i].fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % rule.period != plan->phases[i]) continue;
    plan->fired.fetch_add(1, std::memory_order_relaxed);
    switch (rule.kind) {
      case FaultKind::kThrow:
        throw FaultInjectedError(rule.site);
      case FaultKind::kStall:
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        break;
      case FaultKind::kAlloc:
        throw std::bad_alloc();
    }
  }
}

std::uint64_t injected_count() {
  ActivePlan* plan = g_plan.load(std::memory_order_acquire);
  return plan == nullptr ? 0 : plan->fired.load(std::memory_order_relaxed);
}

bool backoff_sleep(const Deadline& deadline, int retry, double base_ms) {
  // Cap the exponent so the sleep stays bounded (~64x base) however many
  // retries a long-running request accumulates.
  const int exponent = retry < 6 ? (retry < 0 ? 0 : retry) : 6;
  double remaining_ms = base_ms * static_cast<double>(1 << exponent);
  while (remaining_ms > 0.0) {
    if (deadline.expired()) return false;
    const double slice_ms = remaining_ms < 1.0 ? remaining_ms : 1.0;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        slice_ms));
    remaining_ms -= slice_ms;
  }
  return !deadline.expired();
}

}  // namespace monomap::fault
