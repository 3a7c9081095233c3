// Map the full 17-benchmark suite (paper Sec. V) on a chosen CGRA and print
// a Table III-style summary for the decoupled mapper.
//
// Usage: map_suite [grid_side] [timeout_s]
//        map_suite 5 10
#include <cstdlib>
#include <iostream>

#include "mapper/decoupled_mapper.hpp"
#include "support/table.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace monomap;

  const int side = argc > 1 ? std::atoi(argv[1]) : 4;
  const double timeout = argc > 2 ? std::atof(argv[2]) : 30.0;
  if (side < 1) {
    std::cerr << "bad grid side\n";
    return 1;
  }
  const CgraArch arch = CgraArch::square(side);
  std::cout << "Mapping the benchmark suite onto " << arch.description()
            << " (timeout " << timeout << " s per benchmark)\n\n";

  AsciiTable table({"Benchmark", "Nodes", "mII", "II", "Time[s]", "Space[s]",
                    "Total[s]", "Schedules", "Status"});
  int solved = 0;
  for (const Benchmark& b : benchmark_suite()) {
    DecoupledMapperOptions opt;
    opt.timeout_s = timeout;
    const MapResult r = DecoupledMapper(opt).map(b.dfg, arch);
    table.add_row({b.name, std::to_string(b.dfg.num_nodes()),
                   std::to_string(r.mii.mii()),
                   r.success ? std::to_string(r.ii) : "-",
                   format_time_s(r.time_phase_s),
                   format_time_s(r.space_phase_s), format_time_s(r.total_s),
                   std::to_string(r.schedules_tried),
                   r.success ? "ok"
                   : r.outcome == MapOutcome::kRefuted ? "fail"
                                                       : "TO"});
    if (r.success) ++solved;
  }
  table.print(std::cout);
  std::cout << '\n' << solved << "/" << benchmark_suite().size()
            << " benchmarks mapped\n";
  return solved == static_cast<int>(benchmark_suite().size()) ? 0 : 1;
}
