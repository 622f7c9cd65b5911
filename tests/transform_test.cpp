// Tests for the QuAMax ML-to-QUBO transform — the exactness property
//     qubo.energy(q) + offset == ||y - H x(q)||^2
// is the load-bearing invariant of the whole reproduction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "detect/transform.h"
#include "qubo/brute_force.h"
#include "util/rng.h"
#include "wireless/mimo.h"

namespace {

namespace wl = hcq::wireless;
using wl::modulation;

// gtest prints a parameter that has no printer as its raw bytes, and CTest
// names each case after that print. `name_tag` fills the four bytes after
// `mod` that were once padding: their indeterminate contents (leftover stack
// bytes that moved with address-space randomisation) made the case names
// change from run to run. Pinning them keeps each case's name stable and equal
// to the name the suite has been listed under. The tests never read it.
struct transform_case {
    modulation mod;
    std::uint32_t name_tag;
    std::size_t users;
};

constexpr std::uint32_t kTagZero = 0;
constexpr std::uint32_t kTag7fff = 0x7FFF;

class TransformExactness
    : public ::testing::TestWithParam<transform_case> {};

TEST_P(TransformExactness, QuboEnergyEqualsMlCostForRandomBits) {
    const auto param = GetParam();
    hcq::util::rng rng(static_cast<std::uint64_t>(param.mod) * 1000 + param.users);
    for (int inst = 0; inst < 3; ++inst) {
        const auto instance = wl::noiseless_paper_instance(rng, param.users, param.mod);
        const auto mq = hcq::detect::ml_to_qubo(instance);
        ASSERT_EQ(mq.model.num_variables(), instance.num_bits());
        for (int trial = 0; trial < 25; ++trial) {
            const auto bits = rng.bits(instance.num_bits());
            const double via_qubo = mq.model.energy_with_offset(bits);
            const double direct = instance.ml_cost_bits(bits);
            EXPECT_NEAR(via_qubo, direct, 1e-8 * std::max(1.0, std::fabs(direct)));
        }
    }
}

TEST_P(TransformExactness, TransmittedBitsAreZeroResidual) {
    const auto param = GetParam();
    hcq::util::rng rng(static_cast<std::uint64_t>(param.mod) * 2000 + param.users);
    const auto instance = wl::noiseless_paper_instance(rng, param.users, param.mod);
    const auto mq = hcq::detect::ml_to_qubo(instance);
    EXPECT_NEAR(mq.model.energy_with_offset(instance.tx_bits), 0.0, 1e-8);
    // Hence the QUBO value at the truth is exactly -offset.
    EXPECT_NEAR(mq.model.energy(instance.tx_bits), -mq.model.offset(), 1e-8);
}

TEST_P(TransformExactness, NoisyInstanceStillExact) {
    const auto param = GetParam();
    hcq::util::rng rng(static_cast<std::uint64_t>(param.mod) * 3000 + param.users);
    wl::mimo_config config;
    config.mod = param.mod;
    config.num_users = param.users;
    config.num_antennas = param.users + 2;
    config.channel = wl::channel_model::rayleigh;
    config.noise_variance = 0.5;
    const auto instance = wl::synthesize(rng, config);
    const auto mq = hcq::detect::ml_to_qubo(instance);
    for (int trial = 0; trial < 20; ++trial) {
        const auto bits = rng.bits(instance.num_bits());
        EXPECT_NEAR(mq.model.energy_with_offset(bits), instance.ml_cost_bits(bits), 1e-7);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModulationsAndSizes, TransformExactness,
    ::testing::Values(transform_case{modulation::bpsk, kTag7fff, 1},
                      transform_case{modulation::bpsk, kTagZero, 4},
                      transform_case{modulation::bpsk, kTag7fff, 12},
                      transform_case{modulation::qpsk, kTag7fff, 2},
                      transform_case{modulation::qpsk, kTagZero, 6},
                      transform_case{modulation::qam16, kTagZero, 2},
                      transform_case{modulation::qam16, kTag7fff, 5},
                      transform_case{modulation::qam64, kTagZero, 2},
                      transform_case{modulation::qam64, kTag7fff, 3}));

TEST(Transform, GroundStateIsTransmittedBitsByBruteForce) {
    hcq::util::rng rng(404);
    // Small enough for exhaustive verification: 4 users QPSK = 8 variables.
    const auto instance = wl::noiseless_paper_instance(rng, 4, modulation::qpsk);
    const auto mq = hcq::detect::ml_to_qubo(instance);
    const auto exact = hcq::qubo::brute_force_minimize(mq.model);
    EXPECT_EQ(exact.best_bits, instance.tx_bits);
    EXPECT_NEAR(exact.best_energy, -mq.model.offset(), 1e-8);
    EXPECT_EQ(exact.num_optima, 1u);  // generic random-phase channels: unique
}

TEST(Transform, SymbolsDecodeMatchesModulate) {
    hcq::util::rng rng(405);
    const auto instance = wl::noiseless_paper_instance(rng, 3, modulation::qam16);
    const auto mq = hcq::detect::ml_to_qubo(instance);
    const auto bits = rng.bits(instance.num_bits());
    const auto symbols = mq.symbols(bits);
    const auto expected = wl::modulate(modulation::qam16, bits);
    for (std::size_t u = 0; u < 3; ++u) {
        EXPECT_NEAR(std::abs(symbols[u] - expected[u]), 0.0, 1e-12);
    }
}

TEST(Transform, RejectsBadShapes) {
    hcq::linalg::cmat h(2, 2);
    hcq::linalg::cvec y(3);
    EXPECT_THROW((void)hcq::detect::ml_to_qubo(h, y, modulation::qpsk), std::invalid_argument);
    EXPECT_THROW((void)hcq::detect::ml_to_qubo(hcq::linalg::cmat(0, 0), hcq::linalg::cvec(0),
                                               modulation::qpsk),
                 std::invalid_argument);
}

TEST(Transform, OffsetIsNonNegativeObjectiveShift) {
    // offset == min achievable ||y - Hx||^2 shift container: energy+offset
    // is a norm, so for any bits it is >= 0.
    hcq::util::rng rng(406);
    const auto instance = wl::noiseless_paper_instance(rng, 4, modulation::qam16);
    const auto mq = hcq::detect::ml_to_qubo(instance);
    for (int trial = 0; trial < 30; ++trial) {
        const auto bits = rng.bits(instance.num_bits());
        EXPECT_GE(mq.model.energy_with_offset(bits), -1e-9);
    }
}

TEST(Transform, SymbolPriorStrengthZeroNeutral) {
    hcq::util::rng rng(407);
    const auto instance = wl::noiseless_paper_instance(rng, 2, modulation::qam16);
    auto mq = hcq::detect::ml_to_qubo(instance);
    const auto base = mq.model;
    const std::vector<std::uint8_t> pattern{1, 1, 1, 1};
    hcq::detect::apply_symbol_prior(mq, 0, pattern, 0.0);
    const auto bits = rng.bits(instance.num_bits());
    EXPECT_DOUBLE_EQ(mq.model.energy_with_offset(bits), base.energy_with_offset(bits));
}

TEST(Transform, SymbolPriorPenalisesDisagreement) {
    // Figure 4: with targets 1111 on user 0, the penalty applies to bit
    // pairs that are both wrong; a strong prior must not change the energy
    // of the believed pattern itself.
    hcq::util::rng rng(408);
    const auto instance = wl::noiseless_paper_instance(rng, 2, modulation::qam16);
    auto mq = hcq::detect::ml_to_qubo(instance);
    const auto base = mq.model;
    const std::vector<std::uint8_t> pattern{1, 1, 1, 1};
    hcq::detect::apply_symbol_prior(mq, 0, pattern, 7.0);

    auto agreeing = instance.tx_bits;
    for (std::size_t b = 0; b < 4; ++b) agreeing[b] = 1;
    EXPECT_NEAR(mq.model.energy_with_offset(agreeing), base.energy_with_offset(agreeing), 1e-9);

    auto disagreeing = agreeing;
    disagreeing[0] = 0;
    disagreeing[1] = 0;  // first pair fully wrong: penalty 7
    EXPECT_NEAR(mq.model.energy_with_offset(disagreeing),
                base.energy_with_offset(disagreeing) + 7.0, 1e-9);
}

TEST(Transform, SymbolPriorValidation) {
    hcq::util::rng rng(409);
    const auto instance = wl::noiseless_paper_instance(rng, 2, modulation::qpsk);
    auto mq = hcq::detect::ml_to_qubo(instance);
    const std::vector<std::uint8_t> pattern{1, 1};
    EXPECT_THROW(hcq::detect::apply_symbol_prior(mq, 5, pattern, 1.0), std::invalid_argument);
    const std::vector<std::uint8_t> short_pattern{1};
    EXPECT_THROW(hcq::detect::apply_symbol_prior(mq, 0, short_pattern, 1.0),
                 std::invalid_argument);
}

TEST(Transform, VariableCountsPerModulation) {
    hcq::util::rng rng(410);
    EXPECT_EQ(hcq::detect::ml_to_qubo(wl::noiseless_paper_instance(rng, 36, modulation::bpsk))
                  .model.num_variables(),
              36u);
    EXPECT_EQ(hcq::detect::ml_to_qubo(wl::noiseless_paper_instance(rng, 18, modulation::qpsk))
                  .model.num_variables(),
              36u);
    EXPECT_EQ(hcq::detect::ml_to_qubo(wl::noiseless_paper_instance(rng, 9, modulation::qam16))
                  .model.num_variables(),
              36u);
    EXPECT_EQ(hcq::detect::ml_to_qubo(wl::noiseless_paper_instance(rng, 6, modulation::qam64))
                  .model.num_variables(),
              36u);
}

}  // namespace
