// Entry points of the benchmark's workloads.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench_util.h"
#include "catalog.h"

namespace perfbench {

/// One run of a link-simulator workload (untraced or traced per `opts`).
[[nodiscard]] run_result run_link_workload(const options& opts, const link_workload& wl);

/// One run of serve-mixed (untraced or traced per `opts`).
[[nodiscard]] run_result run_serve_workload(const options& opts);

/// Re-measures the reference figures the README records: zf,kbest at 100k
/// uses on 1, 2 and 4 threads, and run_batch of a 32-use ZF request.
void print_reference_figures(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
