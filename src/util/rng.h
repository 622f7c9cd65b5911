// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library draws from an hcq::util::rng that
// the caller seeds explicitly; there is no hidden global generator.  Derived
// streams (`derive`) give statistically independent generators for parallel
// workers while keeping a single master seed per experiment.
//
// Engine contract: the engine is an in-tree MT19937-64 whose raw output equals
// std::mt19937_64 seeded with the same value, bit for bit (same seeding
// recurrence, twist and tempering, same min/max/result_type), so every
// std::*_distribution below draws exactly what it would over the standard
// engine.  Rng.MatchesStdMt19937_64 in tests/util_test.cpp pins this.
//
// Cost model: constructing or deriving a stream is O(1) -- it stores the seed
// only (one splitmix per `derive`).  A stream pays the 312-word seeding plus
// one twist on its first draw, and a twist every 312 draws after that; a
// stream that is never drawn from costs nothing beyond its seed.
#ifndef HCQ_UTIL_RNG_H
#define HCQ_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace hcq::util {

namespace detail {

/// MT19937-64 with the output of std::mt19937_64, bit for bit, seeded lazily:
/// construction stores only the seed and marks the state unseeded with
/// `pos_ > n`, so the `pos_ >= n` refill check of the draw seeds on the first
/// draw and the hot path carries no extra branch.
class mt19937_64 {
public:
    using result_type = std::uint64_t;
    static constexpr std::size_t n = 312;

    explicit mt19937_64(result_type seed) noexcept : seed_(seed) {}
    // An unseeded engine copies only its seed: its state words are
    // indeterminate and never read before the first draw seeds them.
    mt19937_64(const mt19937_64& other) noexcept : seed_(other.seed_), pos_(other.pos_) {
        copy_state(other);
    }
    mt19937_64& operator=(const mt19937_64& other) noexcept {
        if (this != &other) {
            seed_ = other.seed_;
            pos_ = other.pos_;
            copy_state(other);
        }
        return *this;
    }

    [[nodiscard]] result_type operator()() noexcept {
        if (pos_ >= n) refill();
        result_type z = x_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }
    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }
    [[nodiscard]] result_type seed() const noexcept { return seed_; }

private:
    static constexpr std::size_t unseeded = n + 1;

    /// Seeds the state if it is unseeded, then twists and rewinds `pos_`.
    void refill() noexcept;
    void copy_state(const mt19937_64& other) noexcept {
        if (other.pos_ <= n) {
            for (std::size_t i = 0; i < n; ++i) x_[i] = other.x_[i];
        }
    }

    result_type seed_;
    std::size_t pos_ = unseeded;
    result_type x_[n];  // indeterminate until the first draw seeds it
};

}  // namespace detail

/// Seedable pseudo-random generator over a lazily seeded MT19937-64 (output
/// identical to std::mt19937_64) with the distribution helpers the library
/// needs.
class rng {
public:
    using result_type = std::uint64_t;

    /// Constructs a generator from a 64-bit seed (default: fixed seed so that
    /// forgetting to seed still yields reproducible runs).  O(1): the engine
    /// seeds itself on the first draw.
    explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept : engine_(seed) {}

    /// Returns a generator for an independent stream identified by
    /// `stream_id`; deterministic in (seed, stream_id).  O(1): one splitmix.
    [[nodiscard]] rng derive(std::uint64_t stream_id) const;

    /// Uniform real in [0, 1).  Inline: this is the innermost draw of every
    /// Metropolis accept test — a fresh distribution object over the same
    /// engine is bit-identical to the historical out-of-line call.
    [[nodiscard]] double uniform() {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }
    /// Uniform real in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);
    /// Uniform integer in [0, n); requires n > 0.
    [[nodiscard]] std::size_t uniform_index(std::size_t n);
    /// Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
    /// Standard normal draw.  Inline for the channel-synthesis hot loop.
    [[nodiscard]] double normal() {
        return std::normal_distribution<double>(0.0, 1.0)(engine_);
    }
    /// Normal with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double stddev);
    /// Bernoulli draw with success probability p.
    [[nodiscard]] bool bernoulli(double p);
    /// Uniform angle in [0, 2*pi).
    [[nodiscard]] double angle();

    /// n independent fair bits.
    [[nodiscard]] std::vector<std::uint8_t> bits(std::size_t n);

    /// n independent fair bits into a reused buffer (same draw sequence).
    void bits_into(std::size_t n, std::vector<std::uint8_t>& out);

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[uniform_index(i)]);
        }
    }

    /// UniformRandomBitGenerator interface.
    [[nodiscard]] result_type operator()() { return engine_(); }
    [[nodiscard]] static constexpr result_type min() { return detail::mt19937_64::min(); }
    [[nodiscard]] static constexpr result_type max() { return detail::mt19937_64::max(); }

    /// The seed this generator was constructed with.
    [[nodiscard]] std::uint64_t seed() const noexcept { return engine_.seed(); }

private:
    detail::mt19937_64 engine_;
};

}  // namespace hcq::util

#endif  // HCQ_UTIL_RNG_H
