#include "independent.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

using cxd = std::complex<double>;

double pam(std::uint8_t a, std::uint8_t b) {
    return 2.0 * (2.0 * a - 1.0) + (2.0 * b - 1.0);
}

/// Depth-first enumeration: `residual` is y minus the contributions of users
/// 0..user-1; adds each candidate point of `user` and recurses.
void search(const std::vector<std::vector<std::vector<cxd>>>& contrib, std::size_t user,
            const std::vector<cxd>& residual, double& best) {
    const std::size_t rows = residual.size();
    std::vector<cxd> next(rows);
    for (const auto& column : contrib[user]) {
        for (std::size_t r = 0; r < rows; ++r) next[r] = residual[r] - column[r];
        if (user + 1 == contrib.size()) {
            double cost = 0.0;
            for (const cxd v : next) cost += std::norm(v);
            best = std::min(best, cost);
        } else {
            search(contrib, user + 1, next, best);
        }
    }
}

}  // namespace

std::complex<double> qam16_symbol(std::span<const std::uint8_t> bits) {
    if (bits.size() != 4) throw std::invalid_argument("qam16_symbol: need 4 bits");
    return {pam(bits[0], bits[1]), pam(bits[2], bits[3])};
}

double own_ml_cost(const hcq::wireless::mimo_instance& instance,
                   std::span<const std::uint8_t> bits) {
    const std::size_t users = instance.num_users;
    const std::size_t rows = instance.num_antennas;
    if (bits.size() != 4 * users) throw std::invalid_argument("own_ml_cost: bit count");
    std::vector<cxd> x(users);
    for (std::size_t j = 0; j < users; ++j) x[j] = qam16_symbol(bits.subspan(4 * j, 4));
    double cost = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
        cxd acc = instance.y[r];
        for (std::size_t j = 0; j < users; ++j) acc -= instance.h(r, j) * x[j];
        cost += std::norm(acc);
    }
    return cost;
}

double exhaustive_min_cost(const hcq::wireless::mimo_instance& instance) {
    const std::size_t users = instance.num_users;
    const std::size_t rows = instance.num_antennas;
    // contrib[j][k] = column j of H times grid point k.
    std::vector<std::vector<std::vector<cxd>>> contrib(users);
    const double levels[4] = {-3.0, -1.0, 1.0, 3.0};
    for (std::size_t j = 0; j < users; ++j) {
        for (const double re : levels) {
            for (const double im : levels) {
                std::vector<cxd> column(rows);
                for (std::size_t r = 0; r < rows; ++r) column[r] = instance.h(r, j) * cxd(re, im);
                contrib[j].push_back(std::move(column));
            }
        }
    }
    std::vector<cxd> y(rows);
    for (std::size_t r = 0; r < rows; ++r) y[r] = instance.y[r];
    double best = std::numeric_limits<double>::infinity();
    search(contrib, 0, y, best);
    return best;
}

bool close(double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace perfbench
