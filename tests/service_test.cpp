// MappingService + KnowledgeStore: protocol robustness, memo soundness
// (identical and isomorphic repeats), warm-start differentials against the
// sequential mapper, admission control, fault containment, shutdown.
#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/dfg_io.hpp"
#include "mapper/fingerprint.hpp"
#include "mapper/knowledge_store.hpp"
#include "mapper/mapping.hpp"
#include "service/protocol.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

json::Value parse_response(const std::string& response) {
  const std::optional<json::Value> doc = json::parse(response);
  EXPECT_TRUE(doc.has_value() && doc->is_object()) << response;
  return doc.has_value() ? *doc : json::Value();
}

std::string map_request(const std::string& bench, bool memo, bool warm,
                        const std::string& extra = "") {
  return "{\"verb\":\"map\",\"id\":\"t\",\"bench\":\"" + bench +
         "\",\"grid\":4,\"deadline_s\":30,\"memo\":" +
         (memo ? "true" : "false") +
         ",\"warm\":" + (warm ? "true" : "false") + extra + "}";
}

// ---- protocol ------------------------------------------------------------

TEST(ServeProtocolTest, MalformedInputIsAnErrorNeverACrash) {
  const char* bad[] = {
      "",                                       // empty
      "not json",                               // unparsable
      "[1,2,3]",                                // not an object
      "{\"verb\":\"fly\",\"bench\":\"fft\"}",   // unknown verb
      "{\"verb\":\"map\"}",                     // neither bench nor dfg
      "{\"verb\":\"map\",\"bench\":\"fft\",\"dfg\":\"x\"}",  // both
      "{\"verb\":\"map\",\"bench\":\"fft\",\"grid\":0}",     // grid range
      "{\"verb\":\"map\",\"bench\":\"fft\",\"grid\":1.5}",   // non-integer
      "{\"verb\":\"map\",\"bench\":\"fft\",\"max_schedules\":-1}",
      "{\"verb\":\"map\",\"bench\":\"fft\",\"topology\":\"ring\"}",
      "{\"verb\":\"map\",\"bench\":\"fft\",\"deadline_s\":-2}",
      "{\"verb\":\"map\",\"bench\":\"fft\",\"warm\":\"yes\"}",
      "{\"verb\":\"map\",\"bench\":\"fft\",\"memo\":1}",
  };
  for (const char* line : bad) {
    const ParsedRequest parsed = parse_request(line);
    EXPECT_FALSE(parsed.ok) << line;
    EXPECT_FALSE(parsed.error.empty()) << line;
  }
}

TEST(ServeProtocolTest, DefaultsAndOverrides) {
  const ParsedRequest parsed = parse_request(
      "{\"verb\":\"map\",\"id\":7,\"bench\":\"fft\",\"grid\":5,"
      "\"topology\":\"torus\",\"deadline_s\":2.5,\"memo\":false,"
      "\"anytime\":true,\"max_schedules\":9,\"mapping\":true}");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const ServeRequest& req = parsed.request;
  EXPECT_EQ(req.id, "7");
  EXPECT_EQ(req.rows, 5);
  EXPECT_EQ(req.cols, 5);
  EXPECT_EQ(req.topology, Topology::kTorus);
  EXPECT_DOUBLE_EQ(req.deadline_s, 2.5);
  EXPECT_EQ(req.memo, 0);
  EXPECT_EQ(req.warm, -1);  // untouched tri-state
  EXPECT_TRUE(req.anytime);
  EXPECT_EQ(req.max_schedules, 9);
  EXPECT_TRUE(req.want_mapping);
}

TEST(ServiceTest, MalformedLineGetsErrorResponseAndServiceSurvives) {
  MappingService service;
  const json::Value err = parse_response(service.handle_line("garbage"));
  EXPECT_FALSE(err.bool_or("ok", true));
  const json::Value ok =
      parse_response(service.handle_line(map_request("fft", false, false)));
  EXPECT_TRUE(ok.bool_or("ok", false));
  EXPECT_EQ(service.stats().errors, 1u);
}

// ---- memo ----------------------------------------------------------------

TEST(ServiceTest, ExactRepeatIsMemoHitWithSameAnswer) {
  MappingService service;
  const json::Value cold =
      parse_response(service.handle_line(map_request("fft", true, false)));
  const json::Value hit =
      parse_response(service.handle_line(map_request("fft", true, false)));
  ASSERT_TRUE(cold.bool_or("ok", false));
  ASSERT_TRUE(hit.bool_or("ok", false));
  EXPECT_FALSE(cold.bool_or("memo_hit", true));
  EXPECT_TRUE(hit.bool_or("memo_hit", false));
  EXPECT_EQ(cold.number_or("ii", -1.0), hit.number_or("ii", -2.0));
  // The hit answers from the stored result, not from defaults.
  EXPECT_EQ(cold.number_or("mii", -1.0), hit.number_or("mii", -2.0));
  EXPECT_EQ(cold.number_or("ii_lo", -1.0), hit.number_or("ii_lo", -2.0));
  EXPECT_EQ(hit.number_or("schedules_tried", -1.0), 0.0);
  EXPECT_EQ(service.stats().store.memo_hits, 1u);
}

/// `dfg` with node v renamed n - 1 - v: an isomorphic relabelling.
Dfg reversed_copy(const Dfg& dfg) {
  std::vector<Edge> edges;
  const int n = dfg.num_nodes();
  for (EdgeId e = 0; e < dfg.num_edges(); ++e) {
    const Edge& edge = dfg.graph().edge(e);
    edges.push_back(
        Edge{static_cast<NodeId>(n - 1 - edge.src),
             static_cast<NodeId>(n - 1 - edge.dst), edge.attr});
  }
  return Dfg::from_edges(dfg.name() + "_rev", n, edges);
}

TEST(ServiceTest, IsomorphicRepeatIsMemoHitWithValidMapping) {
  // Same structural graph under two different node labelings: the second
  // request must hit the memo AND return a mapping valid for ITS labeling.
  const Dfg original = dfg_from_text(dfg_to_text(benchmark_by_name("fft").dfg));
  const Dfg relabeled = reversed_copy(original);

  MappingService service;
  auto dfg_request = [](const Dfg& dfg) {
    return "{\"verb\":\"map\",\"id\":\"t\",\"dfg\":\"" +
           json::escape(dfg_to_text(dfg)) +
           "\",\"grid\":4,\"deadline_s\":30,\"memo\":true,\"warm\":false,"
           "\"mapping\":true}";
  };
  const json::Value first =
      parse_response(service.handle_line(dfg_request(original)));
  const json::Value second =
      parse_response(service.handle_line(dfg_request(relabeled)));
  ASSERT_TRUE(first.bool_or("ok", false));
  ASSERT_TRUE(second.bool_or("ok", false));
  EXPECT_TRUE(second.bool_or("memo_hit", false));
  EXPECT_EQ(first.number_or("ii", -1.0), second.number_or("ii", -2.0));

  const std::string text = second.string_or("mapping", "");
  ASSERT_FALSE(text.empty());
  const Mapping mapping = mapping_from_text(text, relabeled.num_nodes());
  const CgraArch arch(4, 4, Topology::kMesh);
  EXPECT_TRUE(validate_mapping(relabeled, arch, mapping,
                               MrrgModel::kRegisterPersistence)
                  .empty());
}

TEST(ServiceTest, MemoOptOutNeverHits) {
  MappingService service;
  (void)service.handle_line(map_request("fft", true, false));
  const json::Value repeat =
      parse_response(service.handle_line(map_request("fft", false, false)));
  ASSERT_TRUE(repeat.bool_or("ok", false));
  EXPECT_FALSE(repeat.bool_or("memo_hit", true));
  EXPECT_GT(repeat.number_or("schedules_tried", 0.0), 0.0);
}

TEST(KnowledgeStoreTest, DifferentOptionsOrSaltNeverShareMemoSlots) {
  const Dfg dfg = benchmark_by_name("fft").dfg;
  const CgraArch arch(4, 4, Topology::kMesh);
  const DfgFingerprint fp = fingerprint_dfg(dfg);
  const std::uint64_t arch_fp = fingerprint_arch(arch);

  DecoupledMapperOptions options;
  const MapResult result = DecoupledMapper(options).map(dfg, arch);
  ASSERT_TRUE(result.success);

  KnowledgeStore store;
  store.store(dfg, fp, arch_fp, options, result);
  EXPECT_TRUE(store.lookup(dfg, arch, fp, arch_fp, options).has_value());
  // A different salt (the service's warm/cold split) misses.
  EXPECT_FALSE(
      store.lookup(dfg, arch, fp, arch_fp, options, 1).has_value());
  // A different answer-shaping option misses.
  DecoupledMapperOptions other = options;
  other.anytime = true;
  EXPECT_FALSE(store.lookup(dfg, arch, fp, arch_fp, other).has_value());
  // A different architecture misses.
  const CgraArch bigger(5, 5, Topology::kMesh);
  EXPECT_FALSE(store
                   .lookup(dfg, bigger, fp, fingerprint_arch(bigger), options)
                   .has_value());
  // Soundness gate: only completed feasible results are ever stored.
  MapResult degraded = result;
  degraded.outcome = MapOutcome::kDegraded;
  KnowledgeStore fresh;
  fresh.store(dfg, fp, arch_fp, options, degraded);
  EXPECT_FALSE(fresh.lookup(dfg, arch, fp, arch_fp, options).has_value());
}

TEST(KnowledgeStoreTest, BudgetPressureEvictsTheOldestCertificates) {
  // A full knowledge budget makes room by evicting the key's oldest
  // certificates: every new certificate is kept, the oldest are gone.
  const Dfg dfg = dfg_from_text(dfg_to_text(benchmark_by_name("cfd").dfg));
  const DfgFingerprint fp = fingerprint_dfg(dfg);
  ASSERT_TRUE(fp.canonical);
  KnowledgeStore::Options small;
  small.memory_budget_mb = 1;
  KnowledgeStore store(small);
  const DecoupledMapperOptions options;
  const std::uint64_t arch_fp = fingerprint_arch(CgraArch(4, 4));
  const std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()), 0);
  // Distinct three-node partitions, well over what 1 MiB holds.
  std::size_t published = 0;
  std::vector<NodeId> newest;
  for (NodeId a = 0; a < dfg.num_nodes() && published < 12000; ++a) {
    CrossIiNogoodStore scratch;
    for (NodeId b = a + 1; b < dfg.num_nodes(); ++b) {
      for (NodeId c = b + 1; c < dfg.num_nodes(); ++c) {
        scratch.add(2, {a, b, c}, labels);
        newest = {a, b, c};
      }
    }
    const std::size_t fresh = scratch.size();
    EXPECT_EQ(store.publish(fp, arch_fp, options, scratch, 0), fresh);
    published += fresh;
  }
  EXPECT_LE(store.stats().bytes_used, std::size_t{1} << 20);
  // The oldest certificate was evicted, so publishing it again stores it
  // again: an evicted partition is forgotten, not remembered as a dup.
  CrossIiNogoodStore oldest;
  oldest.add(2, {0, 1, 2}, labels);
  EXPECT_EQ(store.publish(fp, arch_fp, options, oldest, 0), 1u);
  EXPECT_LE(store.stats().bytes_used, std::size_t{1} << 20);
  CrossIiNogoodStore seeded;
  const std::size_t kept = store.seed(fp, arch_fp, options, &seeded);
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, published);
  // The newest and the republished certificates survived, in the
  // request's node space.
  std::vector<SlotPartitionCert> certs;
  std::size_t cursor = 0;
  seeded.drain(&cursor, &certs);
  const auto holds = [&](const std::vector<NodeId>& nodes) {
    const std::vector<std::vector<NodeId>> want = {nodes};
    return std::any_of(certs.begin(), certs.end(),
                       [&](const SlotPartitionCert& cert) {
                         return cert.blocks == want;
                       });
  };
  EXPECT_TRUE(holds(newest));
  EXPECT_TRUE(holds({0, 1, 2}));
}

// ---- warm starts ---------------------------------------------------------

TEST(KnowledgeStoreTest, CertificatesTransferAcrossIsomorphicRelabelling) {
  // Publish certificates learned on one DFG, then seed a request for an
  // isomorphic relabelling: the seeded certificates are the same
  // partitions, on the nodes the canonical labelling identifies.
  const Dfg original = dfg_from_text(dfg_to_text(benchmark_by_name("fft").dfg));
  const Dfg relabeled = reversed_copy(original);
  const DfgFingerprint fa = fingerprint_dfg(original);
  const DfgFingerprint fb = fingerprint_dfg(relabeled);
  ASSERT_TRUE(fa.canonical && fb.canonical);
  const std::size_t n = static_cast<std::size_t>(original.num_nodes());
  // original node -> relabeled node, through canonical space.
  std::vector<NodeId> from_canon_b(n);
  for (std::size_t v = 0; v < n; ++v) {
    from_canon_b[static_cast<std::size_t>(fb.canon[v])] =
        static_cast<NodeId>(v);
  }
  std::vector<NodeId> to_b(n);
  for (std::size_t v = 0; v < n; ++v) {
    to_b[v] = from_canon_b[static_cast<std::size_t>(fa.canon[v])];
  }

  CrossIiNogoodStore scratch;
  std::vector<int> mod3(n);
  std::vector<int> mod2(n);
  for (std::size_t v = 0; v < n; ++v) {
    mod3[v] = static_cast<int>(v % 3);
    mod2[v] = static_cast<int>(v % 2);
  }
  ASSERT_TRUE(scratch.add(3, {0, 1, 2, 3, 4, 5}, mod3));
  ASSERT_TRUE(scratch.add(3, {2, 4, 7}, mod3));
  ASSERT_TRUE(scratch.add(2, {1, 3, 6, 8}, mod2));

  KnowledgeStore store;
  const DecoupledMapperOptions options;
  const std::uint64_t arch_fp = fingerprint_arch(CgraArch(4, 4));
  EXPECT_EQ(store.publish(fa, arch_fp, options, scratch, 3), 3u);
  // A second publish of the same knowledge stores nothing, and a lower
  // floor never lowers the stored one.
  EXPECT_EQ(store.publish(fa, arch_fp, options, scratch, 2), 0u);
  EXPECT_EQ(store.stats().certs_published, 3u);
  EXPECT_EQ(store.refuted_floor(fb, arch_fp, options), 3);

  CrossIiNogoodStore seeded;
  ASSERT_EQ(store.seed(fb, arch_fp, options, &seeded), 3u);
  std::vector<SlotPartitionCert> published;
  std::vector<SlotPartitionCert> got;
  std::size_t cursor = 0;
  scratch.drain(&cursor, &published);
  cursor = 0;
  seeded.drain(&cursor, &got);
  auto partitions = [](const std::vector<SlotPartitionCert>& certs) {
    std::set<std::vector<std::vector<NodeId>>> out;
    for (const SlotPartitionCert& cert : certs) out.insert(cert.blocks);
    return out;
  };
  std::vector<SlotPartitionCert> want;
  for (const SlotPartitionCert& cert : published) {
    want.push_back(relabel(cert, to_b));
  }
  EXPECT_EQ(partitions(got), partitions(want));
  for (const SlotPartitionCert& cert : got) {
    EXPECT_EQ(cert.source_ii, 0);  // foreign: every attempt lifts it
    EXPECT_EQ(cert.blocks.size(), cert.block_slots.size());
  }
}

TEST(ServiceTest, WarmWalkMatchesSequentialAnswerWithEmptyStore) {
  // map_warm seeded with nothing must agree with map() on ii/success —
  // the warm path is the same walk, only the starting knowledge differs.
  // Without a store it is map()'s walk exactly, so the work matches too.
  const Deadline deadline(30.0);
  for (const char* name : {"fft", "gsm", "nw", "susan"}) {
    const Dfg dfg = benchmark_by_name(name).dfg;
    const CgraArch arch(4, 4, Topology::kMesh);
    const DecoupledMapper mapper{DecoupledMapperOptions{}};
    const MapResult cold = mapper.map(dfg, arch);
    CrossIiNogoodStore scratch;
    const MapResult warm = mapper.map_warm(dfg, arch, deadline, &scratch, 0);
    EXPECT_EQ(cold.success, warm.success) << name;
    EXPECT_EQ(cold.ii, warm.ii) << name;
    const MapResult bare = mapper.map_warm(dfg, arch, deadline, nullptr, 0);
    EXPECT_EQ(cold.success, bare.success) << name;
    EXPECT_EQ(cold.ii, bare.ii) << name;
    EXPECT_EQ(cold.schedules_tried, bare.schedules_tried) << name;
    EXPECT_EQ(cold.time_stats.sat_calls, bare.time_stats.sat_calls) << name;
    EXPECT_EQ(cold.space_truncated, bare.space_truncated) << name;
    EXPECT_EQ(cold.ii_lo, bare.ii_lo) << name;
    if (warm.success) {
      EXPECT_TRUE(validate_mapping(dfg, arch, warm.mapping,
                                   MrrgModel::kRegisterPersistence)
                      .empty())
          << name;
    }
  }
}

TEST(ServiceTest, WarmSecondRequestSameAnswerNoMoreSchedules) {
  // nw on a 4x4 refutes low IIs by exhaustion before landing; the second
  // warm request inherits that knowledge: identical final II, and the
  // walk must not get hungrier (floor soundness differential).
  MappingService service;
  const json::Value donor =
      parse_response(service.handle_line(map_request("nw", false, true)));
  const json::Value warm =
      parse_response(service.handle_line(map_request("nw", false, true)));
  ASSERT_TRUE(donor.bool_or("ok", false));
  ASSERT_TRUE(warm.bool_or("ok", false));
  EXPECT_EQ(donor.number_or("ii", -1.0), warm.number_or("ii", -2.0));
  EXPECT_LE(warm.number_or("schedules_tried", 1e9),
            donor.number_or("schedules_tried", 0.0));
  // The warm request must actually have started warm.
  EXPECT_TRUE(warm.number_or("certs_seeded", 0.0) > 0.0 ||
              warm.number_or("floor", 0.0) > 0.0);
  EXPECT_GE(service.stats().warm_starts, 1u);

  // Differential: the sequential mapper agrees with both.
  const MapResult cold = DecoupledMapper{DecoupledMapperOptions{}}.map(
      benchmark_by_name("nw").dfg, CgraArch(4, 4, Topology::kMesh));
  ASSERT_TRUE(cold.success);
  EXPECT_EQ(static_cast<double>(cold.ii), warm.number_or("ii", -1.0));
}

// ---- admission control ---------------------------------------------------

TEST(ServiceTest, AdmissionBoundRejectsWithDeadlineOutcome) {
  MappingService::Options options;
  options.threads = 1;
  options.queue_limit = 1;
  MappingService service(options);

  std::atomic<int> rejected{0};
  std::atomic<int> served{0};
  std::thread occupant([&] {
    // cfd at 4x4 runs ~1s: long enough that the probes below overlap it.
    const json::Value r =
        parse_response(service.handle_line(map_request("cfd", false, false)));
    if (r.bool_or("ok", false)) served.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const json::Value probe =
      parse_response(service.handle_line(map_request("fft", false, false)));
  if (probe.bool_or("ok", false)) {
    served.fetch_add(1);
  } else {
    EXPECT_EQ(probe.string_or("outcome", ""), "deadline");
    EXPECT_EQ(probe.number_or("exit_code", 0.0), 5.0);
    rejected.fetch_add(1);
  }
  occupant.join();
  EXPECT_EQ(served.load() + rejected.load(), 2);
  EXPECT_EQ(service.stats().rejected,
            static_cast<std::uint64_t>(rejected.load()));
  // The service keeps serving after shedding load.
  const json::Value after =
      parse_response(service.handle_line(map_request("fft", false, false)));
  EXPECT_TRUE(after.bool_or("ok", false));
}

// ---- fault containment ---------------------------------------------------

TEST(ServiceTest, ServeRequestFaultSiteIsClassifiedAndContained) {
  const auto plan = fault::parse_fault_spec("serve.request=throw@2:1");
  ASSERT_TRUE(plan.has_value());
  fault::install_faults(*plan);
  MappingService service;
  int faults = 0;
  int feasible = 0;
  for (int i = 0; i < 4; ++i) {
    const json::Value r =
        parse_response(service.handle_line(map_request("fft", false, false)));
    const std::string outcome = r.string_or("outcome", "");
    if (outcome == "fault") {
      EXPECT_FALSE(r.bool_or("ok", true));
      EXPECT_EQ(r.number_or("exit_code", 0.0), 7.0);
      ++faults;
    } else if (outcome == "feasible") {
      ++feasible;
    }
  }
  fault::clear_faults();
  // period 2: half the requests fault, the server survives all of them.
  EXPECT_EQ(faults, 2);
  EXPECT_EQ(feasible, 2);
  EXPECT_EQ(service.stats().faults, 2u);
  const json::Value after =
      parse_response(service.handle_line(map_request("fft", false, false)));
  EXPECT_TRUE(after.bool_or("ok", false));
}

// ---- stats + shutdown ----------------------------------------------------

TEST(ServiceTest, StatsVerbReportsCountersAndLatency) {
  MappingService service;
  (void)service.handle_line(map_request("fft", true, false));
  (void)service.handle_line(map_request("fft", true, false));
  const json::Value stats = parse_response(
      service.handle_line("{\"verb\":\"stats\",\"id\":\"s\"}"));
  EXPECT_TRUE(stats.bool_or("ok", false));
  EXPECT_EQ(stats.number_or("requests", 0.0), 2.0);
  EXPECT_EQ(stats.number_or("memo_hits", 0.0), 1.0);
  EXPECT_EQ(stats.number_or("memo_stores", 0.0), 1.0);
  EXPECT_GT(stats.number_or("p50_ms", 0.0), 0.0);
  EXPECT_GE(stats.number_or("p99_ms", 0.0),
            stats.number_or("p50_ms", 0.0));
  EXPECT_GT(stats.number_or("mem_bytes", 0.0), 0.0);
}

TEST(ServiceTest, ShutdownVerbFlagsTheFrontEnd) {
  MappingService service;
  EXPECT_FALSE(service.shutdown_requested());
  const json::Value r = parse_response(
      service.handle_line("{\"verb\":\"shutdown\",\"id\":\"x\"}"));
  EXPECT_TRUE(r.bool_or("ok", false));
  EXPECT_TRUE(service.shutdown_requested());
}

}  // namespace
}  // namespace monomap
