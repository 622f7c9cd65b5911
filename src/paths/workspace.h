// Per-worker detection workspaces — the reusable-state arena behind the
// redesigned detection-path hot path.
//
// A `workspace` owns everything a detection path may want to reuse across
// channel uses: the detector scratch (decomposition caches, QUBO reduction
// buffers, tree-search beams — detect/scratch.h), the classical-solver
// scratch (Metropolis engine, bit/field buffers — classical/solver.h) and
// the soft-output buffers.  Once warm, the built-in paths run a use — and
// its soft output — without touching the heap.
//
// Ownership model: one workspace per worker, never shared concurrently —
// every detection_path::run_block context must carry one.
//
// Determinism: workspaces NEVER change detection outputs.  Buffers are
// resized in place (values fully rewritten per use) and the embedded
// decomposition caches key on the exact channel content — a hit replays a
// pure function of the same input.  Which worker (and hence which cache
// state) serves a given use varies run to run, but since hits are
// output-invariant, the statistics stay bit-identical at any thread count
// and stream block; tests/workspace_test.cpp pins this.
#ifndef HCQ_PATHS_WORKSPACE_H
#define HCQ_PATHS_WORKSPACE_H

#include <vector>

#include "classical/solver.h"
#include "detect/scratch.h"
#include "linalg/decompose.h"
#include "linalg/matrix.h"
#include "wireless/soft.h"

namespace hcq::paths {

/// Buffers of detection_path::soft_output: the flip-recost scratch and the
/// linear paths' post-equalisation intermediates.
struct soft_scratch {
    wireless::recost_scratch recost;
    linalg::inverse_scratch<linalg::cxd> inverse;
    linalg::cmat gram;        ///< H^H H + load I
    linalg::cmat gram_inv;
    linalg::cvec hy;          ///< H^H y
    linalg::cvec equalized;
    std::vector<double> stream_nv;  ///< per-stream effective noise variance
};

/// Per-worker reusable state for the detection hot path.
struct workspace {
    detect::detect_scratch detect;  ///< detector scratch + decomposition caches
    solvers::solve_scratch solve;   ///< classical-solver / hybrid scratch
    soft_scratch soft;              ///< soft-output buffers
};

}  // namespace hcq::paths

#endif  // HCQ_PATHS_WORKSPACE_H
