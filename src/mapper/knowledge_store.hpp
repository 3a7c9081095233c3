// Cross-request knowledge store: the concurrently shared half of the
// mapper split (the per-request DecoupledMapper instance stays stateless).
//
// Two kinds of reuse, both keyed by (arch fingerprint, canonical DFG
// fingerprint) so isomorphic requests share entries:
//
//  * MEMO — a bounded LRU cache of completed feasible MapResults, keyed
//    additionally on the FULL options fingerprint (every knob that shapes
//    the answer; the wall deadline is deliberately excluded — it shapes
//    *whether* an answer was found, and only completed feasible results
//    are cached). The mapping is stored in canonical node space; a hit
//    translates it through the requesting DFG's canonical permutation and
//    re-validates, so a fingerprint collision costs a miss, never an
//    invalid answer. Non-canonical fingerprints (canonicalisation budget
//    blown) degrade to exact-identity keys.
//
//  * KNOWLEDGE — slot-partition certificates and sound refuted-II floors,
//    keyed additionally on the SOUNDNESS fingerprint (just the options
//    that decide which certificates are valid at all: the MRRG model and
//    the time-constraint semantics). Certificates are stored in canonical
//    node space and translated into a per-request CrossIiNogoodStore,
//    which feeds the existing add_cross_ii_nogood / prefilter channel —
//    one user's refutation warm-starts the next user's walk. Floors only
//    ever advance via MapResult::ii_refuted_up_to (natural exhaustion +
//    zero truncated space searches, contiguous), so a warm request's
//    starting II never exceeds a sound refutation. Gated to
//    MrrgModel::kRegisterPersistence, where the partition argument holds
//    across IIs (see cross_ii_store.hpp).
//
// Lock-striped: keys hash to one of kStripes independent shards, each with
// its own mutex, maps and LRU list, so concurrent requests on different
// DFGs never contend. Memory is accounted against an internal
// ResourceGovernor: a denied memo charge evicts memo LRU entries, a denied
// certificate charge evicts the oldest certificates of the inserting key.
#ifndef MONOMAP_MAPPER_KNOWLEDGE_STORE_HPP
#define MONOMAP_MAPPER_KNOWLEDGE_STORE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mapper/cross_ii_store.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "mapper/fingerprint.hpp"
#include "support/resource.hpp"

namespace monomap {

/// Hash of the option subset that decides whether a stored certificate /
/// refuted-II floor is valid for a request: the space model and the
/// time-constraint semantics. Effort knobs (budgets, retries, adaptive
/// policy) do not affect validity — a certificate is a property of the
/// problem, not of the search that found it.
std::uint64_t soundness_fingerprint(const DecoupledMapperOptions& options);

/// Hash of every option that shapes the ANSWER a mapper returns (engines,
/// models, constraint toggles, budgets, retry policy, anytime, schedule
/// caps...). timeout_s is excluded: only completed feasible results are
/// memoised, and those are deadline-independent. Two requests with equal
/// options fingerprints asking for the same (arch, DFG) get the same
/// answer, so the memo may serve one to the other.
std::uint64_t options_fingerprint(const DecoupledMapperOptions& options);

class KnowledgeStore {
 public:
  struct Options {
    /// Byte budget for everything the store retains; 0 = unlimited.
    std::size_t memory_budget_mb = 64;
    /// Hard cap on memo entries across all stripes (LRU beyond it).
    std::size_t max_memo_entries = 4096;
  };

  struct StatsSnapshot {
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_stores = 0;
    std::uint64_t memo_evictions = 0;
    /// Hits rejected because the translated mapping failed validation
    /// (fingerprint collision or a stale entry) — served as misses.
    std::uint64_t memo_invalid = 0;
    std::uint64_t warm_requests = 0;
    std::uint64_t certs_seeded = 0;
    std::uint64_t certs_published = 0;
    /// Warm requests that started above II 1 thanks to a stored floor.
    std::uint64_t floor_hits = 0;
    std::size_t bytes_used = 0;
    std::size_t bytes_peak = 0;
  };

  KnowledgeStore();  // default Options
  explicit KnowledgeStore(Options options);
  KnowledgeStore(const KnowledgeStore&) = delete;
  KnowledgeStore& operator=(const KnowledgeStore&) = delete;

  // ---- memo cache ----

  /// Look up a completed result for (arch, dfg, options). On a hit the
  /// cached canonical mapping is translated through `fp.canon` and
  /// re-validated against THIS dfg/arch; failure (collision) is a miss.
  /// `salt` partitions the memo further (e.g. the service keys warm and
  /// cold walks separately — they may settle on different valid answers).
  std::optional<MapResult> lookup(const Dfg& dfg, const CgraArch& arch,
                                  const DfgFingerprint& fp,
                                  std::uint64_t arch_fp,
                                  const DecoupledMapperOptions& options,
                                  std::uint64_t salt = 0);

  /// Memoise `result` when it is a completed feasible (non-degraded)
  /// mapping; anything else is ignored — deadline-shaped outcomes must
  /// not be served to other requests.
  void store(const Dfg& dfg, const DfgFingerprint& fp, std::uint64_t arch_fp,
             const DecoupledMapperOptions& options, const MapResult& result,
             std::uint64_t salt = 0);

  // ---- knowledge (certificates + refuted-II floors) ----

  /// Sound refuted-II floor for this key (0 = nothing known): every II
  /// <= floor is soundly refuted, so a warm walk may start at floor + 1.
  int refuted_floor(const DfgFingerprint& fp, std::uint64_t arch_fp,
                    const DecoupledMapperOptions& options);

  /// Translate this key's stored certificates into `out` (request node
  /// space, source_ii = 0 so every attempt lifts their rotations) and
  /// return how many were seeded. No-op (0) for non-canonical fingerprints
  /// or non-register-persistence models.
  std::size_t seed(const DfgFingerprint& fp, std::uint64_t arch_fp,
                   const DecoupledMapperOptions& options,
                   CrossIiNogoodStore* out);

  /// Harvest a finished warm run: translate `scratch`'s certificates into
  /// canonical space, dedup into the key's entry, and advance the refuted
  /// floor to `refuted_up_to` when it is larger (caller passes
  /// MapResult::ii_refuted_up_to — sound by construction). Returns the
  /// number of newly stored certificates.
  std::size_t publish(const DfgFingerprint& fp, std::uint64_t arch_fp,
                      const DecoupledMapperOptions& options,
                      const CrossIiNogoodStore& scratch, int refuted_up_to);

  [[nodiscard]] StatsSnapshot stats() const;

 private:
  struct Key {
    std::uint64_t arch_fp = 0;
    std::uint64_t dfg_hi = 0;
    std::uint64_t dfg_lo = 0;
    std::uint64_t scope_fp = 0;  // options fp (memo) / soundness fp (knowledge)
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  /// A completed feasible mapping in canonical node space.
  struct MemoEntry {
    int ii = 0;
    MiiBreakdown mii;  // isomorphism-invariant, so valid for every hit
    int ii_refuted_up_to = 0;
    int schedules_tried = 0;
    int num_nodes = 0;
    int num_edges = 0;
    std::vector<int> time;  // canonical index -> absolute time
    std::vector<PeId> pe;   // canonical index -> PE
    std::list<Key>::iterator lru;
    std::size_t bytes = 0;
  };

  struct KnowledgeEntry {
    explicit KnowledgeEntry(ResourceGovernor* governor) {
      certs.set_governor(governor);
    }
    int refuted_floor = 0;
    CrossIiNogoodStore certs;  // canonical node space, charged to governor_
  };

  struct Stripe {
    mutable std::mutex m;
    std::unordered_map<Key, MemoEntry, KeyHash> memo;
    std::unordered_map<Key, KnowledgeEntry, KeyHash> knowledge;
    std::list<Key> lru;  // front = most recent
    std::size_t memo_count = 0;
  };

  static constexpr std::size_t kStripes = 16;

  Stripe& stripe_for(const Key& key);
  /// Whether the knowledge side applies at all to these options/fp.
  static bool knowledge_applicable(const DfgFingerprint& fp,
                                   const DecoupledMapperOptions& options);
  static Key memo_key(const DfgFingerprint& fp, std::uint64_t arch_fp,
                      std::uint64_t options_fp);
  /// Knowledge entries are keyed on the canonical hash (applicable only
  /// when fp.canonical) and the soundness fingerprint.
  static Key knowledge_key(const DfgFingerprint& fp, std::uint64_t arch_fp,
                           const DecoupledMapperOptions& options);
  void evict_lru_locked(Stripe& stripe, std::size_t* counter);

  Options options_;
  ResourceGovernor governor_;
  Stripe stripes_[kStripes];

  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_misses_{0};
  std::atomic<std::uint64_t> memo_stores_{0};
  std::atomic<std::uint64_t> memo_evictions_{0};
  std::atomic<std::uint64_t> memo_invalid_{0};
  std::atomic<std::uint64_t> warm_requests_{0};
  std::atomic<std::uint64_t> certs_seeded_{0};
  std::atomic<std::uint64_t> certs_published_{0};
  std::atomic<std::uint64_t> floor_hits_{0};
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_KNOWLEDGE_STORE_HPP
