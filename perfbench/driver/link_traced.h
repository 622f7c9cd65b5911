// The traced link driver: link::run_link_simulation's per-use work, driven
// single-threaded from the benchmark through each layer's public functions
// (wireless synthesis, the detect reduction, the paths API, fec, arq,
// metrics, pipeline) with a span around every call.  It consumes the same
// derived RNG streams as the link layer (link::stream_domains), so its
// deterministic outputs must equal the untraced link_report of the same
// config — the check that proves the traced run drives the work it
// attributes.
#ifndef PERFBENCH_LINK_TRACED_H
#define PERFBENCH_LINK_TRACED_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arq/arq.h"
#include "detect/transform.h"
#include "link/link_sim.h"
#include "metrics/ber.h"
#include "trace.h"

namespace perfbench {

/// Deterministic per-path outputs of the traced driver, the same quantities
/// link::path_report carries.
struct traced_path {
    std::string kind;
    std::string spec;
    hcq::metrics::ber_counter ber;
    std::uint64_t exact_frames = 0;
    double sum_ml_cost = 0.0;
    std::optional<hcq::arq::counters> arq;
    std::uint64_t fec_frames = 0;
    std::uint64_t fec_frame_errors = 0;
    hcq::metrics::ber_counter info_ber;
};

struct traced_outcome {
    std::vector<traced_path> paths;
    double wall_us = 0.0;                   ///< the whole traced driver
    std::vector<hcq::detect::ml_qubo> qubos;  ///< every use's reduction, when kept
};

/// Runs `config` through the traced driver (config.num_threads is ignored:
/// the driver is single-threaded).  `keep_qubos` keeps each use's QUBO
/// reduction for the solver-form pass.
[[nodiscard]] traced_outcome run_traced_link(const hcq::link::link_config& config, tracer& tr,
                                             bool keep_qubos);

/// Solves every kept QUBO with each QUBO path's solver form
/// (registry::make_solver -> solve_best_into) on the path's own solve
/// stream, one span per path under layer "classical" or "core".
void run_solver_forms(const hcq::link::link_config& config,
                      const std::vector<hcq::detect::ml_qubo>& qubos, tracer& tr);

/// The src/ module that implements a QUBO path kind's solver.
[[nodiscard]] const char* solver_layer(const std::string& kind);

/// Empty when `traced` equals the link report's deterministic outputs;
/// otherwise one message per mismatch.
[[nodiscard]] std::vector<std::string> compare_with_report(
    const traced_outcome& traced, const hcq::link::link_report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LINK_TRACED_H
