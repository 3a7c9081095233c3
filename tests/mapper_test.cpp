// End-to-end tests for the decoupled mapper (the paper's contribution) and
// the coupled SAT baseline.
#include <gtest/gtest.h>

#include "mapper/coupled_mapper.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "workloads/running_example.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace monomap {
namespace {

DecoupledMapperOptions fast_options() {
  DecoupledMapperOptions opt;
  opt.timeout_s = 60.0;
  return opt;
}

TEST(DecoupledMapper, RunningExampleMapsAtMiiOn2x2) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  const MapResult r = DecoupledMapper(fast_options()).map(dfg, arch);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.mii.mii(), 4);
  EXPECT_EQ(r.ii, 4) << "paper maps the running example at II = 4";
  EXPECT_TRUE(mapping_is_valid(dfg, arch, r.mapping));
}

TEST(DecoupledMapper, RunningExampleOnLargerGridsKeepsIi) {
  const Dfg dfg = running_example_dfg();
  for (const int n : {3, 4, 5}) {
    const CgraArch arch = CgraArch::square(n);
    const MapResult r = DecoupledMapper(fast_options()).map(dfg, arch);
    ASSERT_TRUE(r.success) << n << ": " << r.failure_reason;
    EXPECT_EQ(r.ii, 4) << n;  // RecII = 4 dominates on every grid
    EXPECT_TRUE(mapping_is_valid(dfg, arch, r.mapping));
  }
}

TEST(CoupledMapper, RunningExampleMatchesDecoupledQuality) {
  const Dfg dfg = running_example_dfg();
  const CgraArch arch = CgraArch::square(2);
  CoupledMapperOptions opt;
  opt.timeout_s = 120.0;
  const CoupledMapResult r = CoupledSatMapper(opt).map(dfg, arch);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.ii, 4);
  EXPECT_TRUE(mapping_is_valid(dfg, arch, r.mapping));
}

/// Full suite on a 4x4 CGRA: every benchmark must map and validate.
class SuiteMapping : public ::testing::TestWithParam<int> {};

TEST_P(SuiteMapping, MapsAndValidatesOn4x4) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  const CgraArch arch = CgraArch::square(4);
  const MapResult r = DecoupledMapper(fast_options()).map(b.dfg, arch);
  ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;
  EXPECT_GE(r.ii, r.mii.mii()) << b.name;
  EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping)) << b.name;
}

TEST_P(SuiteMapping, MapsAndValidatesOn5x5) {
  const Benchmark& b = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  const CgraArch arch = CgraArch::square(5);
  const MapResult r = DecoupledMapper(fast_options()).map(b.dfg, arch);
  ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;
  EXPECT_TRUE(mapping_is_valid(b.dfg, arch, r.mapping)) << b.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteMapping, ::testing::Range(0, 17),
    [](const ::testing::TestParamInfo<int>& info) {
      return benchmark_suite()[static_cast<std::size_t>(info.param)].name;
    });

TEST(DecoupledMapper, AchievesMiiWhenUncongested) {
  // bitcount is tiny: II should equal mII everywhere.
  const Benchmark& b = benchmark_by_name("bitcount");
  for (const int n : {2, 4, 8}) {
    const CgraArch arch = CgraArch::square(n);
    const MapResult r = DecoupledMapper(fast_options()).map(b.dfg, arch);
    ASSERT_TRUE(r.success) << n;
    EXPECT_EQ(r.ii, r.mii.mii()) << n;
  }
}

TEST(DecoupledMapper, TimePhaseIsGridSizeInsensitive) {
  // The decoupling claim: formulation size depends on the DFG, not on the
  // grid. Verify the encoding stats are identical across grids of equal
  // D_M (5x5 vs 20x20) at equal mII.
  const Benchmark& b = benchmark_by_name("fft");
  const MapResult r5 =
      DecoupledMapper(fast_options()).map(b.dfg, CgraArch::square(5));
  const MapResult r20 =
      DecoupledMapper(fast_options()).map(b.dfg, CgraArch::square(20));
  ASSERT_TRUE(r5.success);
  ASSERT_TRUE(r20.success);
  EXPECT_EQ(r5.time_stats.last_formulation.num_vars,
            r20.time_stats.last_formulation.num_vars);
  EXPECT_EQ(r5.ii, r20.ii);
}

TEST(DecoupledMapper, ImpossibleBudgetReportsTimeout) {
  const Benchmark& b = benchmark_by_name("hotspot3D");
  DecoupledMapperOptions opt;
  opt.timeout_s = 1e-6;  // expire immediately
  const MapResult r = DecoupledMapper(opt).map(b.dfg, CgraArch::square(5));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.outcome, MapOutcome::kDeadline);
}

TEST(DecoupledMapper, SingleNodeDfgOnSinglePe) {
  const Dfg dfg = Dfg::from_edges("one", 1, {});
  const CgraArch arch(1, 1);
  const MapResult r = DecoupledMapper(fast_options()).map(dfg, arch);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.ii, 1);
}

TEST(DecoupledMapper, SelfLoopAccumulator) {
  // A one-node accumulator with a distance-1 self-edge.
  const Dfg dfg = Dfg::from_edges("acc", 1, {{0, 0, 1}});
  const CgraArch arch = CgraArch::square(2);
  const MapResult r = DecoupledMapper(fast_options()).map(dfg, arch);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.ii, 1);
  EXPECT_TRUE(mapping_is_valid(dfg, arch, r.mapping));
}

TEST(DecoupledMapper, ChainTooLongForCapacityRaisesIi) {
  // 5 independent nodes on a 1x2 CGRA: ResII = ceil(5/2) = 3.
  const Dfg dfg = Dfg::from_edges(
      "par5", 5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}});
  const CgraArch arch(1, 2);
  const MapResult r = DecoupledMapper(fast_options()).map(dfg, arch);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.ii, 3);
  EXPECT_TRUE(mapping_is_valid(dfg, arch, r.mapping));
}

TEST(CoupledVsDecoupled, SameIiOnSmallCases) {
  // On small grids both exact mappers should find the same II (the paper
  // reports identical II in 57 of 68 cases; differences only appear when a
  // tool times out).
  for (const char* name : {"bitcount", "susan", "sha1", "fft"}) {
    const Benchmark& b = benchmark_by_name(name);
    const CgraArch arch = CgraArch::square(3);
    const MapResult dec = DecoupledMapper(fast_options()).map(b.dfg, arch);
    CoupledMapperOptions copt;
    copt.timeout_s = 120.0;
    const CoupledMapResult cop = CoupledSatMapper(copt).map(b.dfg, arch);
    ASSERT_TRUE(dec.success) << name;
    ASSERT_TRUE(cop.success) << name;
    // The decoupled mapper adds connectivity constraints that can only
    // raise II, never lower it below the joint optimum.
    EXPECT_GE(dec.ii, cop.ii) << name;
    EXPECT_TRUE(mapping_is_valid(b.dfg, arch, cop.mapping)) << name;
  }
}

TEST(DecoupledMapper, RandomDfgsAlwaysValidate) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    SyntheticSpec spec;
    spec.num_nodes = 18;
    spec.seed = seed;
    const Dfg dfg = random_dfg(spec);
    const CgraArch arch = CgraArch::square(4);
    const MapResult r = DecoupledMapper(fast_options()).map(dfg, arch);
    ASSERT_TRUE(r.success) << "seed " << seed << ": " << r.failure_reason;
    EXPECT_TRUE(mapping_is_valid(dfg, arch, r.mapping)) << seed;
  }
}

TEST(DecoupledMapper, MapBatchHonoursSharedDeadline) {
  std::vector<const Dfg*> dfgs;
  for (const char* name : {"gsm", "fft", "hotspot3D"}) {
    dfgs.push_back(&benchmark_by_name(name).dfg);
  }
  const CgraArch arch = CgraArch::square(4);
  const DecoupledMapper mapper(fast_options());
  // An already-expired shared deadline must cut every item short — no item
  // may fall back to its own private options_.timeout_s budget.
  BatchStats stats;
  const std::vector<MapResult> results =
      mapper.map_batch(dfgs, arch, Deadline(0.0), 2, &stats);
  ASSERT_EQ(results.size(), dfgs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].success) << i;
    // The wall clock ran out; nobody fired a cancel token.
    EXPECT_EQ(results[i].outcome, MapOutcome::kDeadline) << i;
  }
}

TEST(DecoupledMapper, MapBatchObservesCancelToken) {
  std::vector<const Dfg*> dfgs;
  for (const char* name : {"gsm", "fft"}) {
    dfgs.push_back(&benchmark_by_name(name).dfg);
  }
  const CgraArch arch = CgraArch::square(4);
  CancelToken cancel;
  cancel.cancel();
  const Deadline deadline(1e9, &cancel);
  const std::vector<MapResult> results =
      DecoupledMapper(fast_options()).map_batch(dfgs, arch, deadline, 1);
  for (const MapResult& r : results) {
    EXPECT_FALSE(r.success);
    // Cut short by the token, not the wall clock: reported distinctly.
    EXPECT_EQ(r.outcome, MapOutcome::kCancelled);
  }
}

TEST(DecoupledMapper, MapBatchPooledPathReportsCancelDistinctly) {
  std::vector<const Dfg*> dfgs;
  for (const char* name : {"gsm", "fft", "hotspot3D"}) {
    dfgs.push_back(&benchmark_by_name(name).dfg);
  }
  const CgraArch arch = CgraArch::square(4);
  CancelToken cancel;
  cancel.cancel();
  const Deadline deadline(1e9, &cancel);
  BatchStats stats;
  const std::vector<MapResult> results = DecoupledMapper(fast_options())
      .map_batch(dfgs, arch, deadline, 2, &stats);
  ASSERT_EQ(results.size(), dfgs.size());
  for (const MapResult& r : results) {
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.outcome, MapOutcome::kCancelled);
  }
}

TEST(Mapping, ValidatorCatchesBadTiming) {
  const Dfg dfg = Dfg::from_edges("pair", 2, {{0, 1, 0}});
  const CgraArch arch = CgraArch::square(2);
  // Both at time 0 violates the dependency.
  const Mapping bad(2, {0, 0}, {0, 1});
  EXPECT_FALSE(validate_mapping(dfg, arch, bad).empty());
  const Mapping good(2, {0, 1}, {0, 1});
  EXPECT_TRUE(validate_mapping(dfg, arch, good).empty());
}

TEST(Mapping, ValidatorCatchesNonAdjacentPlacement) {
  const Dfg dfg = Dfg::from_edges("pair", 2, {{0, 1, 0}});
  const CgraArch arch = CgraArch::square(3);
  // PE0 (corner) and PE8 (opposite corner) are not adjacent.
  const Mapping bad(2, {0, 1}, {0, 8});
  EXPECT_FALSE(validate_mapping(dfg, arch, bad).empty());
}

TEST(Mapping, ValidatorCatchesSlotCollision) {
  const Dfg dfg = Dfg::from_edges("pair", 2, {});
  const CgraArch arch = CgraArch::square(2);
  // Same PE, same slot (times 1 and 3 with II=2 are both slot 1).
  const Mapping bad(2, {1, 3}, {0, 0});
  EXPECT_FALSE(validate_mapping(dfg, arch, bad).empty());
  const Mapping good(2, {1, 2}, {0, 0});
  EXPECT_TRUE(validate_mapping(dfg, arch, good).empty());
}

}  // namespace
}  // namespace monomap
