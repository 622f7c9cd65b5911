// Computations the correctness checks compare the program against, written
// apart from the program: the 4x4 16-QAM symbol map {+-1, +-3} + i{+-1, +-3},
// the ML cost ||y - H x||^2 from the instance's raw matrices, and an
// exhaustive search over every candidate symbol vector.
#ifndef PERFBENCH_INDEPENDENT_H
#define PERFBENCH_INDEPENDENT_H

#include <complex>
#include <cstdint>
#include <span>

#include "wireless/mimo.h"

namespace perfbench {

/// Natural-map 16-QAM symbol of four bits: in-phase from bits 0-1, quadrature
/// from bits 2-3, each pair (a, b) -> 2(2a - 1) + (2b - 1).
[[nodiscard]] std::complex<double> qam16_symbol(std::span<const std::uint8_t> bits);

/// ||y - H x(bits)||^2 on the channel the detector sees (instance.h).
[[nodiscard]] double own_ml_cost(const hcq::wireless::mimo_instance& instance,
                                 std::span<const std::uint8_t> bits);

/// Minimum of ||y - H x||^2 over all 16^num_users 16-QAM vectors.
[[nodiscard]] double exhaustive_min_cost(const hcq::wireless::mimo_instance& instance);

/// True when `a` and `b` agree to a relative 1e-9 (absolute 1e-9 near zero).
[[nodiscard]] bool close(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_INDEPENDENT_H
