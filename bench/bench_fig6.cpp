//===- bench/bench_fig6.cpp - Paper Figure 6 ------------------------------===//
//
// Regenerates Figure 6: whole-program speedup of the fully automatically
// parallelized code over best sequential execution, per program, as the
// worker count grows to 24.  Per-iteration costs are measured from real
// sequential and single-worker speculative executions on this host; the
// calibrated multicore simulator (see DESIGN.md substitution #2) plays out
// 4-24 worker timelines.  Paper headline: geomean 11.4x at 24 workers.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/TableWriter.h"

using namespace privateer;

int main() {
  MeasuredModels Models = measureAllModels(Workload::Scale::Full);
  const unsigned Counts[] = {1, 4, 8, 12, 16, 20, 24};

  std::printf("Figure 6: Whole-program speedup vs best sequential "
              "(workers sweep)\n\n");
  std::vector<std::string> Header{"Program"};
  for (unsigned W : Counts)
    Header.push_back("W=" + std::to_string(W));
  TableWriter T(Header);

  std::vector<std::vector<double>> PerCount(std::size(Counts));
  for (const WorkloadModel &WM : Models.Workloads) {
    std::vector<std::string> Row{WM.Name};
    for (size_t I = 0; I < std::size(Counts); ++I) {
      SimOptions Opt;
      Opt.Workers = Counts[I];
      double S = privateerSpeedup(Models.Machine, WM, Opt);
      PerCount[I].push_back(S);
      Row.push_back(TableWriter::cell(S));
    }
    T.addRow(Row);
  }
  std::vector<std::string> Geo{"geomean"};
  for (auto &Col : PerCount)
    Geo.push_back(TableWriter::cell(geomean(Col)));
  T.addRow(Geo);
  T.print();

  // Beyond-paper irregular workloads: the reduction heap parallelizes
  // them too, but they stay out of the paper-figure geomean above.
  std::printf("\nCommutative-update workloads (beyond the paper set)\n\n");
  TableWriter TC(Header);
  for (auto &W : commutativeWorkloads(Workload::Scale::Full)) {
    std::fprintf(stderr, "measuring cost model: %s...\n", W->name());
    WorkloadModel WM = WorkloadModel::measure(*W);
    std::vector<std::string> Row{WM.Name};
    for (unsigned Count : Counts) {
      SimOptions Opt;
      Opt.Workers = Count;
      Row.push_back(TableWriter::cell(privateerSpeedup(Models.Machine, WM,
                                                       Opt)));
    }
    TC.addRow(Row);
  }
  TC.print();

  double Geo24 = geomean(PerCount.back());
  std::printf("\ngeomean at 24 workers: %.2fx (paper: 11.4x)\n", Geo24);
  std::printf("shape check: geomean scales with workers and lands in "
              "[6x, 24x] at 24: %s\n",
              (Geo24 >= 6.0 && Geo24 <= 24.0 &&
               geomean(PerCount[1]) < Geo24)
                  ? "PASS"
                  : "FAIL");
  return (Geo24 >= 6.0 && Geo24 <= 24.0) ? 0 : 1;
}
