// The benchmark's catalogue: its four workloads and the metrics every run
// reports (the names and units BENCHMARK.json lists).
#ifndef PERFBENCH_CATALOG_H
#define PERFBENCH_CATALOG_H

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "link/link_sim.h"

namespace perfbench {

/// A link-simulator workload: the config of one timed call plus the sizes
/// of its warm-up and sampled checks.
struct link_workload {
    std::string name;
    hcq::link::link_config config;  ///< seed and threads filled per run
    std::size_t warmup_uses = 0;    ///< uses of the set-up warm-up call
    std::size_t sampled_uses = 0;   ///< uses re-checked against independent computations
};

/// The link workload called `name` (nullopt for any other name); `smoke`
/// shrinks every size.
[[nodiscard]] std::optional<link_workload> find_link_workload(const std::string& name, bool smoke);

/// The serving workload's name.
inline constexpr const char* serve_workload_name = "serve-mixed";

/// All workload names, in BENCHMARK.json order.
[[nodiscard]] std::vector<std::string> workload_names();

struct metric_def {
    const char* name;
    const char* unit;
};

/// End-to-end metrics (every untraced run, every workload).
[[nodiscard]] const std::vector<metric_def>& end_to_end_metrics();
/// Per-layer metrics (every traced run, every workload; a layer the
/// workload does not run reports 0).
[[nodiscard]] const std::vector<metric_def>& per_layer_metrics();

/// Adds every metric of `defs` to `result` in catalogue order, taking its
/// value from `values` (0 when absent).  Throws std::logic_error when
/// `values` holds a name the catalogue lacks.
void emit_metrics(const std::vector<metric_def>& defs, const std::map<std::string, double>& values,
                  run_result& result);

}  // namespace perfbench

#endif  // PERFBENCH_CATALOG_H
