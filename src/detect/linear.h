// Linear detectors: zero-forcing and MMSE.
//
// Section 5 of the paper singles out linear solvers ("e.g., zero-forcing") as
// likely-better reverse-annealing initialisers than greedy search at the cost
// of a matrix inversion.  Both detectors equalise then slice each stream to
// the nearest constellation point.
#ifndef HCQ_DETECT_LINEAR_H
#define HCQ_DETECT_LINEAR_H

#include "detect/detector.h"
#include "linalg/decompose.h"

namespace hcq::detect {

/// Reusable intermediates of the linear detectors, including their
/// decomposition caches.  A cache entry is reused only when the current
/// channel matches the keyed copy EXACTLY (||H - H_key||_F == 0, tested
/// elementwise by linalg::exactly_equal) — a repeated channel yields the
/// identical factorisation, so cache hits are output-invariant by
/// construction; any other channel recomputes from scratch.  Under
/// correlated fading this amortises the QR / Cholesky preprocessing across
/// the paths and retransmission attempts that share one channel use.
struct linear_scratch {
    // Zero-forcing: QR factors of H.
    linalg::cmat zf_key;  ///< channel the cached `ls.factors` belong to
    bool zf_valid = false;
    linalg::ls_scratch<linalg::cxd> ls;

    // MMSE: Cholesky factor of H^H H + load I, keyed on (H, load).
    linalg::cmat mmse_key;
    double mmse_load = 0.0;
    bool mmse_valid = false;
    linalg::cmat gram;  ///< H^H H + load I
    linalg::cmat lfac;  ///< cached Cholesky factor L
    linalg::cmat lh;    ///< cached L^H
    linalg::cvec rhs;   ///< H^H y
    linalg::cvec z;     ///< forward-substitution intermediate

    linalg::cvec soft;  ///< equalised symbol estimates before slicing
};

/// Zero-forcing: x_hat = slice(H^+ y) with H^+ the least-squares pseudo-inverse.
class zf_detector final : public detector {
public:
    void detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                     detection_result& out) const override;
    [[nodiscard]] std::string name() const override { return "ZF"; }
};

/// Linear MMSE: x_hat = slice((H^H H + (sigma^2/E_s) I)^-1 H^H y).
/// With sigma^2 == 0 this degenerates to zero-forcing.
class mmse_detector final : public detector {
public:
    void detect_into(const wireless::mimo_instance& instance, detect_scratch& scratch,
                     detection_result& out) const override;
    [[nodiscard]] std::string name() const override { return "MMSE"; }
};

}  // namespace hcq::detect

#endif  // HCQ_DETECT_LINEAR_H
