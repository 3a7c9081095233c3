// map()'s cross-II race and the cross-II slot-partition certificate store.
//
// The load-bearing property is determinism: the race may only buy wall
// clock, never change the answer — the committed II must equal what the
// helper-free walk (every II on the calling thread, in order) finds,
// because a feasible II commits only after every strictly smaller II has
// been refuted. The tests here pin that agreement across the suite and
// random DFGs, check the certificate machinery's soundness, and stress the
// cancellation plumbing (run these under ThreadSanitizer via
// -DMONOMAP_TSAN=ON to check the pool and store synchronisation).
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mapper/cross_ii_store.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "mapper/decoupled_mapper_test_peer.hpp"
#include "support/parallel.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

DecoupledMapperOptions fast_options() {
  DecoupledMapperOptions opt;
  opt.timeout_s = 120.0;
  return opt;
}

MapResult one_thread_walk(const DecoupledMapper& mapper, const Dfg& dfg,
                          const CgraArch& arch) {
  return DecoupledMapperTestPeer::map_one_thread(mapper, dfg, arch);
}

/// Determinism on the suite: map()'s race and the helper-free walk agree
/// on feasibility and on the exact final II. Grid 5 is load-bearing: it
/// is where a certificate-warmed race historically settled one II above
/// the walk on hotspot3D.
TEST(SpeculativeMapper, MatchesSequentialOnSuiteGrids) {
  const DecoupledMapper mapper(fast_options());
  for (const char* name : {"bitcount", "fft", "nw", "hotspot3D", "cfd"}) {
    const Benchmark& b = benchmark_by_name(name);
    for (const int side : {4, 5, 8}) {
      const CgraArch arch = CgraArch::square(side);
      const MapResult seq = one_thread_walk(mapper, b.dfg, arch);
      const MapResult spec = mapper.map(b.dfg, arch);
      ASSERT_EQ(seq.success, spec.success)
          << name << " " << side << "x" << side << ": "
          << spec.failure_reason;
      if (seq.success) {
        EXPECT_EQ(seq.ii, spec.ii) << name << " " << side << "x" << side;
        EXPECT_TRUE(mapping_is_valid(b.dfg, arch, spec.mapping))
            << name << " " << side << "x" << side;
      }
    }
  }
}

/// Determinism across 10 random DFGs: map() lands on the helper-free
/// walk's final II.
TEST(SpeculativeMapper, MatchesSequentialOnRandomDfgs) {
  const DecoupledMapper mapper(fast_options());
  const CgraArch arch = CgraArch::square(4);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SyntheticSpec dfg_spec;
    dfg_spec.num_nodes = 18;
    dfg_spec.seed = seed;
    const Dfg dfg = random_dfg(dfg_spec);
    const MapResult seq = one_thread_walk(mapper, dfg, arch);
    const MapResult spec = mapper.map(dfg, arch);
    ASSERT_EQ(seq.success, spec.success) << "seed " << seed;
    if (seq.success) {
      EXPECT_EQ(seq.ii, spec.ii) << "seed " << seed;
      EXPECT_TRUE(mapping_is_valid(dfg, arch, spec.mapping)) << seed;
    }
  }
}

/// map() races the IIs above the frontier on the process-wide helper pool
/// once its first II fails; the answer and the effort counters must still
/// equal the one-thread walk's, which runs every II on the caller in
/// order. Two callers map at once, so their walks share the helpers.
TEST(SpeculativeMapper, MapEqualsOneThreadZeroLookaheadWalk) {
  struct Case {
    std::string name;
    int side;
    MapResult raced;
    MapResult walked;
  };
  std::vector<Case> cases;
  for (const char* name : {"cfd", "hotspot3D", "nw", "lud"}) {
    for (const int side : {4, 5, 8}) cases.push_back({name, side, {}, {}});
  }
  cases.push_back({"cfd", 20, {}, {}});
  const DecoupledMapper mapper(fast_options());
  auto caller = [&](std::size_t first) {
    for (std::size_t i = first; i < cases.size(); i += 2) {
      Case& c = cases[i];
      const Dfg& dfg = benchmark_by_name(c.name).dfg;
      const CgraArch arch = CgraArch::square(c.side);
      c.raced = mapper.map(dfg, arch);
      c.walked = one_thread_walk(mapper, dfg, arch);
    }
  };
  std::thread second(caller, 1);
  caller(0);
  second.join();
  for (const Case& c : cases) {
    const std::string where = c.name + " " + std::to_string(c.side);
    EXPECT_EQ(c.raced.outcome, c.walked.outcome) << where;
    EXPECT_EQ(c.raced.ii, c.walked.ii) << where;
    EXPECT_EQ(c.raced.ii_lo, c.walked.ii_lo) << where;
    EXPECT_EQ(c.raced.schedules_tried, c.walked.schedules_tried) << where;
    EXPECT_EQ(c.raced.space_truncated, c.walked.space_truncated) << where;
    EXPECT_EQ(c.raced.time_stats.sat_calls, c.walked.time_stats.sat_calls)
        << where;
  }
}

/// A walk that maps at its first II never opens its lookahead window:
/// nothing reaches the helper pool.
TEST(SpeculativeMapper, FirstIiMappingSubmitsNoHelper) {
  WorkStealingPool* helpers = helper_pool();
  if (helpers == nullptr) GTEST_SKIP() << "single core: no helper pool";
  const DecoupledMapper mapper(fast_options());
  const CgraArch arch = CgraArch::square(8);
  for (const char* name : {"bitcount", "fft"}) {
    const Dfg& dfg = benchmark_by_name(name).dfg;
    const std::uint64_t before = helpers->submitted();
    const MapResult r = mapper.map(dfg, arch);
    ASSERT_TRUE(r.success) << name << ": " << r.failure_reason;
    EXPECT_EQ(r.ii, r.mii.mii()) << name << " no longer maps at mII";
    EXPECT_EQ(helpers->submitted(), before) << name;
  }
}

/// map_at_ii is the exact per-II policy of map(): pinned below the
/// sequential answer it refutes, at the answer it succeeds.
TEST(SpeculativeMapper, MapAtIiMirrorsSequentialDecisions) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(4);
  const MapResult seq = mapper.map(b.dfg, arch);
  ASSERT_TRUE(seq.success) << seq.failure_reason;
  ASSERT_GT(seq.ii, seq.mii.mii())
      << "hotspot3D/4x4 is expected to escalate past mII; if this ever "
         "changes pick another escalation-heavy case for this test";
  for (int ii = seq.mii.mii(); ii < seq.ii; ++ii) {
    const MapResult r = mapper.map_at_ii(b.dfg, arch, ii, Deadline(120.0));
    EXPECT_FALSE(r.success) << "II " << ii;
    EXPECT_EQ(r.outcome, MapOutcome::kRefuted)
        << "II " << ii << ": must be a refutation, " << r.failure_reason;
  }
  const MapResult r =
      mapper.map_at_ii(b.dfg, arch, seq.ii, Deadline(120.0));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.ii, seq.ii);
  EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping));
}

/// Soundness of cross-II certificate lifting: certificates harvested from
/// refuted lower IIs are injected into an attempt at the feasible II, which
/// must still find a valid mapping at the same II — the lifted clauses
/// prune relabelings of dead placements, never a placeable schedule.
TEST(SpeculativeMapper, CrossIiCertificatesAreSoundOnBothEngines) {
  DecoupledMapperOptions opt = fast_options();
  const DecoupledMapper mapper(opt);
  const Benchmark& b = benchmark_by_name("hotspot3D");
  const CgraArch arch = CgraArch::square(8);
  const MapResult seq = mapper.map(b.dfg, arch);
  ASSERT_TRUE(seq.success) << seq.failure_reason;
  ASSERT_GT(seq.ii, seq.mii.mii())
      << "needs a case whose lower IIs are refuted so the store fills up";

  CrossIiNogoodStore store;
  for (int ii = seq.mii.mii(); ii < seq.ii; ++ii) {
    const MapResult r =
        mapper.map_at_ii(b.dfg, arch, ii, Deadline(120.0), &store);
    EXPECT_FALSE(r.success) << "II " << ii;
    EXPECT_EQ(r.outcome, MapOutcome::kRefuted) << "II " << ii;
  }
  ASSERT_GT(store.size(), 0u)
      << "the refuted IIs produced no certificates — the lifting channel "
         "is not being exercised";

  const MapResult r =
      mapper.map_at_ii(b.dfg, arch, seq.ii, Deadline(120.0), &store);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.ii, seq.ii);
  EXPECT_GT(r.time_stats.nogoods_lifted_cross_ii, 0);
  EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping));
}

/// Unit semantics of the certificate store: canonicalisation, dedup,
/// rotation instantiation and the permutation prefilter.
TEST(CrossIiStore, CanonicalisesAndDeduplicates) {
  CrossIiNogoodStore store;
  // Labels 0,1,0,1 over nodes 0..3: blocks {0,2} and {1,3}.
  EXPECT_TRUE(store.add(2, {3, 0, 2, 1}, {0, 1, 0, 1}));
  // Same partition from a different II and node order: still a duplicate
  // (block_slots are not part of the identity, the partition is).
  EXPECT_FALSE(store.add(4, {0, 1, 2, 3}, {5, 7, 5, 7}));
  EXPECT_EQ(store.size(), 1u);
  // A genuinely different partition is kept.
  EXPECT_TRUE(store.add(2, {0, 1, 2, 3}, {0, 0, 1, 1}));
  EXPECT_EQ(store.size(), 2u);
}

TEST(CrossIiStore, RotationInstantiationCoversTargetIi) {
  CrossIiNogoodStore store;
  ASSERT_TRUE(store.add(2, {0, 1, 2}, {0, 1, 0}));
  std::size_t cursor = 0;
  std::vector<SlotPartitionCert> certs;
  store.drain(&cursor, &certs);
  ASSERT_EQ(certs.size(), 1u);
  const auto rotations = instantiate_rotations(certs[0], 3);
  // One clause per target slot rotation.
  ASSERT_EQ(rotations.size(), 3u);
  for (const auto& clause : rotations) {
    ASSERT_EQ(clause.size(), 3u);
    // Nodes 0 and 2 shared a slot at the source II; every instantiation
    // keeps them equal and node 1 offset by the source block distance.
    int slot02 = -1;
    for (const auto& [v, slot] : clause) {
      EXPECT_GE(slot, 0);
      EXPECT_LT(slot, 3);
      if (v == 0 || v == 2) {
        if (slot02 < 0) slot02 = slot;
        EXPECT_EQ(slot, slot02);
      }
    }
  }
  // Drain cursor advances: nothing new on a second drain.
  std::vector<SlotPartitionCert> again;
  store.drain(&cursor, &again);
  EXPECT_TRUE(again.empty());
}

TEST(CrossIiStore, PrefilterMatchesCoarserPartitionsOnly) {
  CrossIiNogoodStore store;
  ASSERT_TRUE(store.add(2, {0, 1, 2, 3}, {0, 0, 1, 1}));
  std::size_t cursor = 0;
  std::vector<SlotPartitionCert> certs;
  store.drain(&cursor, &certs);
  ASSERT_EQ(certs.size(), 1u);
  // Same partition under arbitrary relabeling: hit.
  EXPECT_TRUE(cert_hits_labels(certs[0], {4, 4, 2, 2}));
  // Coarser (all merged): still a hit — merging blocks only tightens.
  EXPECT_TRUE(cert_hits_labels(certs[0], {3, 3, 3, 3}));
  // A block split apart: no hit.
  EXPECT_FALSE(cert_hits_labels(certs[0], {0, 1, 1, 1}));
}

/// Cancellation stress: cancel map() from another thread at varying points
/// in its life. Every run must come back promptly, and a cut-short run must
/// report cancelled (not a bare wall-clock timeout). cfd 8x8 fails its
/// first II, so its walk opens the lookahead window and TSan sees the
/// cancel reach helper attempts through the token chain, alongside the
/// helper pool's hand-off.
TEST(SpeculativeMapper, CancellationStress) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("cfd");
  const CgraArch arch = CgraArch::square(8);
  for (const int delay_ms : {0, 1, 3, 10, 30, 100}) {
    CancelToken cancel;
    const Deadline deadline(600.0, &cancel);
    std::thread axe([&cancel, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      cancel.cancel();
    });
    const MapResult r = mapper.map(b.dfg, arch, deadline);
    axe.join();
    if (r.success) {
      // The race beat the axe; the mapping must still be a real one.
      EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping)) << delay_ms;
    } else {
      EXPECT_EQ(r.outcome, MapOutcome::kCancelled)
          << delay_ms << ": " << r.failure_reason;
    }
  }
}

/// An expired wall clock without a fired token is a deadline, NOT a cancel
/// — the two outcomes must stay distinguishable.
TEST(SpeculativeMapper, ExpiredDeadlineIsNotReportedAsCancelled) {
  const DecoupledMapper mapper(fast_options());
  const Benchmark& b = benchmark_by_name("fft");
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = mapper.map(b.dfg, arch, Deadline(0.0));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kDeadline);
}

}  // namespace
}  // namespace monomap
