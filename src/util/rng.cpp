#include "util/rng.h"

#include <numbers>
#include <stdexcept>

namespace hcq::util {

namespace {

/// SplitMix64 step; used to decorrelate derived stream seeds.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

void detail::mt19937_64::refill() noexcept {
    // The std::mersenne_twister_engine parameters of mt19937_64.
    constexpr std::size_t m = 156;
    constexpr result_type a = 0xb5026f5aa96619e9ULL;
    constexpr result_type upper = ~result_type{0} << 31;
    constexpr result_type lower = ~upper;
    if (pos_ > n) {
        x_[0] = seed_;
        for (std::size_t i = 1; i < n; ++i) {
            x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
        }
    }
    // Branchless twist: the mask replaces `(y & 1) ? a : 0`, whose branch on a
    // random bit mispredicts about half the time.
    const auto mix = [](result_type y) { return (y >> 1) ^ ((0 - (y & 1)) & a); };
    for (std::size_t k = 0; k < n - m; ++k) {
        x_[k] = x_[k + m] ^ mix((x_[k] & upper) | (x_[k + 1] & lower));
    }
    for (std::size_t k = n - m; k < n - 1; ++k) {
        x_[k] = x_[k + m - n] ^ mix((x_[k] & upper) | (x_[k + 1] & lower));
    }
    x_[n - 1] = x_[m - 1] ^ mix((x_[n - 1] & upper) | (x_[0] & lower));
    pos_ = 0;
}

rng rng::derive(std::uint64_t stream_id) const {
    return rng(splitmix64(seed() ^ splitmix64(stream_id + 1)));
}

double rng::uniform(double lo, double hi) {
    if (!(lo <= hi)) throw std::invalid_argument("rng::uniform: lo > hi");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::size_t rng::uniform_index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("rng::uniform_index: n == 0");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("rng::uniform_int: lo > hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double rng::normal(double mean, double stddev) {
    if (stddev < 0.0) throw std::invalid_argument("rng::normal: stddev < 0");
    return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool rng::bernoulli(double p) {
    if (p < 0.0 || p > 1.0) throw std::invalid_argument("rng::bernoulli: p outside [0,1]");
    return std::bernoulli_distribution(p)(engine_);
}

double rng::angle() {
    return uniform(0.0, 2.0 * std::numbers::pi);
}

std::vector<std::uint8_t> rng::bits(std::size_t n) {
    std::vector<std::uint8_t> out;
    bits_into(n, out);
    return out;
}

void rng::bits_into(std::size_t n, std::vector<std::uint8_t>& out) {
    out.resize(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(engine_() & 1ULL);
}

}  // namespace hcq::util
