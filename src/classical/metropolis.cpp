// hcq-hot-path: steady-state code in this file must not allocate — reuse
// workspace scratch (enforced by the hot-path-alloc lint rule).
#include "classical/metropolis.h"

#include <cmath>
#include <stdexcept>

namespace hcq::solvers {

metropolis_engine::metropolis_engine(const qubo::qubo_model& q, qubo::bit_vector initial) {
    reset(q, initial);
}

void metropolis_engine::reset(const qubo::qubo_model& q, std::span<const std::uint8_t> initial) {
    if (initial.size() != q.num_variables()) {
        throw std::invalid_argument("metropolis_engine: bit count mismatch");
    }
    model_ = &q;
    bits_.assign(initial.begin(), initial.end());
    rebuild();
}

void metropolis_engine::set_state(qubo::bit_vector bits) {
    if (bits.size() != model_->num_variables()) {
        throw std::invalid_argument("metropolis_engine::set_state: bit count mismatch");
    }
    bits_ = std::move(bits);
    rebuild();
}

void metropolis_engine::rebuild() {
    energy_ = model_->energy(bits_);
    model_->local_fields_into(bits_, fields_);
}

}  // namespace hcq::solvers
