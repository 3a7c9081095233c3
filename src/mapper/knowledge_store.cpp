#include "mapper/knowledge_store.hpp"

#include <algorithm>
#include <utility>

#include "mapper/mapping.hpp"

namespace monomap {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

std::uint64_t fold_d(std::uint64_t h, double v) {
  return fold(h, static_cast<std::uint64_t>(v * 4096.0));
}

}  // namespace

std::uint64_t soundness_fingerprint(const DecoupledMapperOptions& options) {
  std::uint64_t h = 0x5049'4e4e'4544'2121ULL;
  h = fold(h, static_cast<std::uint64_t>(options.space.model));
  const TimeConstraintOptions& c = options.time.constraints;
  h = fold(h, (static_cast<std::uint64_t>(c.dependencies) << 0) |
                  (static_cast<std::uint64_t>(c.capacity) << 1) |
                  (static_cast<std::uint64_t>(c.connectivity) << 2) |
                  (static_cast<std::uint64_t>(c.strict_connectivity) << 3) |
                  (static_cast<std::uint64_t>(c.consecutive_slots) << 4));
  // A refuted-II floor additionally depends on how far the time search is
  // allowed to fold the horizon: "no schedule exists at this II" is a claim
  // within that extension budget.
  h = fold(h, static_cast<std::uint64_t>(options.time.max_horizon_extension));
  return h;
}

std::uint64_t options_fingerprint(const DecoupledMapperOptions& options) {
  std::uint64_t h = soundness_fingerprint(options);
  h = fold(h, static_cast<std::uint64_t>(options.time.engine));
  h = fold(h, static_cast<std::uint64_t>(options.time.max_ii));
  h = fold(h, static_cast<std::uint64_t>(options.time.min_ii));
  const SpaceOptions& s = options.space;
  h = fold(h, static_cast<std::uint64_t>(s.engine));
  h = fold(h, static_cast<std::uint64_t>(s.order));
  h = fold(h, (static_cast<std::uint64_t>(s.forward_check) << 0) |
                  (static_cast<std::uint64_t>(s.interior_first) << 1) |
                  (static_cast<std::uint64_t>(s.symmetry_breaking) << 2) |
                  (static_cast<std::uint64_t>(s.distance2_filter) << 3) |
                  (static_cast<std::uint64_t>(s.distance2_multiplicity) << 4) |
                  (static_cast<std::uint64_t>(s.backjumping) << 5));
  h = fold(h, s.max_backtracks);
  h = fold(h, static_cast<std::uint64_t>(options.max_space_retries_per_ii));
  h = fold(h,
           static_cast<std::uint64_t>(options.max_space_refutations_per_ii));
  h = fold(h, static_cast<std::uint64_t>(options.adaptive_space_budget));
  h = fold(h, options.min_space_backtracks);
  h = fold(h, options.space_budget_shrink_divisor);
  h = fold(h, options.max_space_budget_boost);
  h = fold_d(h, options.near_miss_depth_fraction);
  h = fold(h, static_cast<std::uint64_t>(options.last_chance_probe));
  h = fold(h, static_cast<std::uint64_t>(options.anytime));
  h = fold(h, static_cast<std::uint64_t>(options.max_schedules));
  h = fold(h, static_cast<std::uint64_t>(options.memory_budget_mb));
  return h;
}

std::size_t KnowledgeStore::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = fold(k.arch_fp, k.dfg_hi);
  h = fold(h, k.dfg_lo);
  h = fold(h, k.scope_fp);
  return static_cast<std::size_t>(h);
}

KnowledgeStore::KnowledgeStore() : KnowledgeStore(Options{}) {}

KnowledgeStore::KnowledgeStore(Options options)
    : options_(options), governor_(options.memory_budget_mb << 20) {}

KnowledgeStore::Stripe& KnowledgeStore::stripe_for(const Key& key) {
  return stripes_[KeyHash{}(key) % kStripes];
}

KnowledgeStore::Key KnowledgeStore::memo_key(const DfgFingerprint& fp,
                                             std::uint64_t arch_fp,
                                             std::uint64_t options_fp) {
  Key key;
  key.arch_fp = arch_fp;
  key.scope_fp = options_fp;
  if (fp.canonical) {
    key.dfg_hi = fp.iso_hi;
    key.dfg_lo = fp.iso_lo;
  } else {
    // No transfer permutation: degrade to exact identity, tagged so an
    // exact hash can never alias an iso hash.
    key.dfg_hi = fp.exact;
    key.dfg_lo = ~std::uint64_t{0};
  }
  return key;
}

KnowledgeStore::Key KnowledgeStore::knowledge_key(
    const DfgFingerprint& fp, std::uint64_t arch_fp,
    const DecoupledMapperOptions& options) {
  Key key;
  key.arch_fp = arch_fp;
  key.dfg_hi = fp.iso_hi;
  key.dfg_lo = fp.iso_lo;
  key.scope_fp = soundness_fingerprint(options);
  return key;
}

bool KnowledgeStore::knowledge_applicable(
    const DfgFingerprint& fp, const DecoupledMapperOptions& options) {
  // Certificate transfer needs a canonical permutation, and the partition
  // argument only holds under register persistence (cross_ii_store.hpp).
  return fp.canonical &&
         options.space.model == MrrgModel::kRegisterPersistence;
}

std::optional<MapResult> KnowledgeStore::lookup(
    const Dfg& dfg, const CgraArch& arch, const DfgFingerprint& fp,
    std::uint64_t arch_fp, const DecoupledMapperOptions& options,
    std::uint64_t salt) {
  const Key key =
      memo_key(fp, arch_fp, fold(options_fingerprint(options), salt));
  Stripe& stripe = stripe_for(key);
  MemoEntry snapshot;
  {
    const std::lock_guard<std::mutex> lock(stripe.m);
    auto it = stripe.memo.find(key);
    if (it == stripe.memo.end()) {
      memo_misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru);
    snapshot = it->second;  // copy out; validate outside the lock
  }
  if (snapshot.num_nodes != dfg.num_nodes() ||
      snapshot.num_edges != dfg.num_edges()) {
    memo_invalid_.fetch_add(1, std::memory_order_relaxed);
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Translate canonical -> this request's node ids. Non-canonical entries
  // were stored with the identity permutation against the exact key, so
  // the ids already line up.
  const std::size_t n = static_cast<std::size_t>(dfg.num_nodes());
  std::vector<int> time(n);
  std::vector<PeId> pe(n);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    const std::size_t ci =
        fp.canonical ? static_cast<std::size_t>(
                           fp.canon[static_cast<std::size_t>(v)])
                     : static_cast<std::size_t>(v);
    time[static_cast<std::size_t>(v)] = snapshot.time[ci];
    pe[static_cast<std::size_t>(v)] = snapshot.pe[ci];
  }
  MapResult result;
  result.mapping = Mapping(snapshot.ii, std::move(time), std::move(pe));
  if (!mapping_is_valid(dfg, arch, result.mapping, options.space.model)) {
    // Fingerprint collision (or automorphism mismatch): the cached answer
    // does not fit this graph. Served as a miss — soundness never rests on
    // hash uniqueness.
    memo_invalid_.fetch_add(1, std::memory_order_relaxed);
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  result.success = true;
  result.outcome = MapOutcome::kFeasible;
  result.ii = snapshot.ii;
  result.mii = snapshot.mii;
  result.ii_refuted_up_to = snapshot.ii_refuted_up_to;
  result.ii_lo = std::max(1, snapshot.ii_refuted_up_to + 1);
  result.ii_hi = snapshot.ii;
  result.schedules_tried = 0;  // the hit costs no search
  result.causes.push_back({"memo", "served from the knowledge store"});
  memo_hits_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void KnowledgeStore::store(const Dfg& dfg, const DfgFingerprint& fp,
                           std::uint64_t arch_fp,
                           const DecoupledMapperOptions& options,
                           const MapResult& result, std::uint64_t salt) {
  if (result.outcome != MapOutcome::kFeasible || result.mapping.empty() ||
      result.mapping.num_nodes() != dfg.num_nodes()) {
    return;
  }
  const Key key =
      memo_key(fp, arch_fp, fold(options_fingerprint(options), salt));
  MemoEntry entry;
  entry.ii = result.ii;
  entry.mii = result.mii;
  entry.ii_refuted_up_to = result.ii_refuted_up_to;
  entry.schedules_tried = result.schedules_tried;
  entry.num_nodes = dfg.num_nodes();
  entry.num_edges = dfg.num_edges();
  const std::size_t n = static_cast<std::size_t>(dfg.num_nodes());
  entry.time.resize(n);
  entry.pe.resize(n);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    const std::size_t ci =
        fp.canonical ? static_cast<std::size_t>(
                           fp.canon[static_cast<std::size_t>(v)])
                     : static_cast<std::size_t>(v);
    entry.time[ci] = result.mapping.time(v);
    entry.pe[ci] = result.mapping.pe(v);
  }
  entry.bytes = sizeof(MemoEntry) + n * (sizeof(int) + sizeof(PeId)) + 64;

  Stripe& stripe = stripe_for(key);
  const std::lock_guard<std::mutex> lock(stripe.m);
  if (stripe.memo.count(key) != 0) {
    return;  // an equivalent answer is already cached
  }
  std::size_t evictions = 0;
  const std::size_t cap = options_.max_memo_entries / kStripes + 1;
  while (stripe.memo_count >= cap && !stripe.lru.empty()) {
    evict_lru_locked(stripe, &evictions);
  }
  bool charged = false;
  while (!(charged = governor_.try_charge(entry.bytes))) {
    if (stripe.lru.empty()) {
      break;  // nothing local to shed; skip the insert
    }
    evict_lru_locked(stripe, &evictions);
  }
  memo_evictions_.fetch_add(evictions, std::memory_order_relaxed);
  if (!charged) {
    return;
  }
  stripe.lru.push_front(key);
  entry.lru = stripe.lru.begin();
  stripe.memo.emplace(key, std::move(entry));
  ++stripe.memo_count;
  memo_stores_.fetch_add(1, std::memory_order_relaxed);
}

void KnowledgeStore::evict_lru_locked(Stripe& stripe, std::size_t* counter) {
  const Key victim = stripe.lru.back();
  auto it = stripe.memo.find(victim);
  if (it != stripe.memo.end()) {
    governor_.uncharge(it->second.bytes);
    stripe.memo.erase(it);
    --stripe.memo_count;
    ++*counter;
  }
  stripe.lru.pop_back();
}

int KnowledgeStore::refuted_floor(const DfgFingerprint& fp,
                                  std::uint64_t arch_fp,
                                  const DecoupledMapperOptions& options) {
  if (!knowledge_applicable(fp, options)) {
    return 0;
  }
  const Key key = knowledge_key(fp, arch_fp, options);
  Stripe& stripe = stripe_for(key);
  const std::lock_guard<std::mutex> lock(stripe.m);
  auto it = stripe.knowledge.find(key);
  if (it == stripe.knowledge.end()) {
    return 0;
  }
  if (it->second.refuted_floor > 0) {
    floor_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second.refuted_floor;
}

std::size_t KnowledgeStore::seed(const DfgFingerprint& fp,
                                 std::uint64_t arch_fp,
                                 const DecoupledMapperOptions& options,
                                 CrossIiNogoodStore* out) {
  warm_requests_.fetch_add(1, std::memory_order_relaxed);
  if (!knowledge_applicable(fp, options) || out == nullptr) {
    return 0;
  }
  const Key key = knowledge_key(fp, arch_fp, options);
  Stripe& stripe = stripe_for(key);
  std::vector<SlotPartitionCert> canonical;
  {
    const std::lock_guard<std::mutex> lock(stripe.m);
    auto it = stripe.knowledge.find(key);
    if (it == stripe.knowledge.end()) {
      return 0;
    }
    std::size_t cursor = 0;
    it->second.certs.drain(&cursor, &canonical);
  }
  // canonical index -> this request's node id.
  std::vector<NodeId> inverse(fp.canon.size());
  for (std::size_t v = 0; v < fp.canon.size(); ++v) {
    inverse[static_cast<std::size_t>(fp.canon[v])] =
        static_cast<NodeId>(v);
  }
  std::size_t seeded = 0;
  for (SlotPartitionCert& cert : canonical) {
    cert.source_ii = 0;  // foreign: every attempt must lift its rotations
    if (out->add_cert(relabel(std::move(cert), inverse))) {
      ++seeded;
    }
  }
  certs_seeded_.fetch_add(seeded, std::memory_order_relaxed);
  return seeded;
}

std::size_t KnowledgeStore::publish(const DfgFingerprint& fp,
                                    std::uint64_t arch_fp,
                                    const DecoupledMapperOptions& options,
                                    const CrossIiNogoodStore& scratch,
                                    int refuted_up_to) {
  if (!knowledge_applicable(fp, options)) {
    return 0;
  }
  const Key key = knowledge_key(fp, arch_fp, options);
  std::vector<SlotPartitionCert> fresh;
  std::size_t cursor = 0;
  scratch.drain(&cursor, &fresh);
  Stripe& stripe = stripe_for(key);
  const std::lock_guard<std::mutex> lock(stripe.m);
  KnowledgeEntry& entry =
      stripe.knowledge.try_emplace(key, &governor_).first->second;
  // Floors only advance, and only with the sound value the caller derived
  // from MapResult::ii_refuted_up_to.
  entry.refuted_floor = std::max(entry.refuted_floor, refuted_up_to);
  // The entry's store dedups canonical partitions and, when the budget
  // refuses a certificate, evicts this key's oldest ones to make room
  // (losing a nogood costs effort, never soundness).
  std::size_t stored = 0;
  for (SlotPartitionCert& cert : fresh) {
    if (entry.certs.add_cert(relabel(std::move(cert), fp.canon))) {
      ++stored;
    }
  }
  certs_published_.fetch_add(stored, std::memory_order_relaxed);
  return stored;
}

KnowledgeStore::StatsSnapshot KnowledgeStore::stats() const {
  StatsSnapshot s;
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  s.memo_stores = memo_stores_.load(std::memory_order_relaxed);
  s.memo_evictions = memo_evictions_.load(std::memory_order_relaxed);
  s.memo_invalid = memo_invalid_.load(std::memory_order_relaxed);
  s.warm_requests = warm_requests_.load(std::memory_order_relaxed);
  s.certs_seeded = certs_seeded_.load(std::memory_order_relaxed);
  s.certs_published = certs_published_.load(std::memory_order_relaxed);
  s.floor_hits = floor_hits_.load(std::memory_order_relaxed);
  s.bytes_used = governor_.used();
  s.bytes_peak = governor_.peak();
  return s;
}

}  // namespace monomap
