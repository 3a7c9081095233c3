// Test-only access to the helper-free II walk.
//
// map() races the IIs above its frontier on idle cores and promises the
// answer and the effort counters of the walk that runs every II on the
// calling thread, in order. Tests and benches pin that promise against the
// latter walk, which is not a public entry point: it is map() with the
// lookahead window kept shut (no helper pool, lookahead 0).
#ifndef MONOMAP_MAPPER_DECOUPLED_MAPPER_TEST_PEER_HPP
#define MONOMAP_MAPPER_DECOUPLED_MAPPER_TEST_PEER_HPP

#include "mapper/decoupled_mapper.hpp"

namespace monomap {

struct DecoupledMapperTestPeer {
  /// map(dfg, arch) with every II run on the calling thread.
  static MapResult map_one_thread(const DecoupledMapper& mapper,
                                  const Dfg& dfg, const CgraArch& arch) {
    const double timeout_s = mapper.options_.timeout_s;
    const Deadline deadline =
        timeout_s > 0 ? Deadline(timeout_s) : Deadline::unlimited();
    return mapper.walk(dfg, arch, deadline, /*store=*/nullptr,
                       /*refuted_floor=*/0, /*race=*/false);
  }
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_DECOUPLED_MAPPER_TEST_PEER_HPP
