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

rng::rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

rng rng::derive(std::uint64_t stream_id) const {
    return rng(splitmix64(seed_ ^ splitmix64(stream_id + 1)));
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
