// Request streams for the request-level benchmark.
//
// A workload is a list of `map` protocol lines (DFG as text, mapping:true)
// plus the service configuration and client count that replay it. All
// inputs are derived from the workload seed; the mapper only ever sees
// the generated lines.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "service/service.hpp"

namespace perfbench {

struct Request {
  std::string line;     // the protocol line handed to handle_line
  std::string problem;  // "<dfg>@<rows>x<cols>"; relabelled copies share it
  std::string dfg_text;
  int rows = 0;
  int cols = 0;
  double deadline_s = 0.0;
  /// Sent with memo:false while the service has memo on (a warm walk that
  /// neither reads nor writes the memo cache).
  bool bypass_memo = false;
  /// Index into benchmark_suite() (simulation oracle), -1 for synthetic.
  int bench_index = -1;
  /// perm[v] = id of original node v in the text sent; empty = identity.
  std::vector<monomap::NodeId> perm;
  /// mII of the DFG on the fabric, computed by the benchmark (sched).
  int mii = 0;
};

/// One batch of requests replayed against a fresh service. serve-mix
/// epochs have two phases (first-time requests, then the repeat mix) with
/// a barrier between them; the other workloads have one.
struct Pass {
  std::vector<std::vector<Request>> phases;
};

struct Workload {
  std::string name;
  std::vector<Pass> passes;
  int clients = 1;
  monomap::MappingService::Options service;
};

/// Build the workload `name` for `seed`, sized so one run does about
/// `seconds` of work in at least `min_passes` passes. Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, int min_passes);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
