// Golden bit-identity suite for the per-worker workspace hot path.
//
// The workspace hot path (paths/workspace.h: reusable scratch arenas,
// block-batched run_block, exact-content-keyed decomposition caches) must be
// a pure performance change: every statistic the link simulator reports in
// the detection domain — BER counters, exact frames, summed ML cost, ARQ
// attempt chains, coded-frame decodes — must equal the outputs of the
// allocate-per-call implementation it replaced, at every thread count and
// stream block, under i.i.d. Rayleigh, correlated Jakes fading, and
// imperfect CSI.  That implementation is gone; the constants below are its
// outputs (serial, 64-use windows), recorded before its removal, with the
// summed ML costs as exact hexadecimal doubles.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "arq/arq.h"
#include "fec/code_spec.h"
#include "link/link_sim.h"
#include "paths/registry.h"
#include "wireless/channel_spec.h"

namespace {

namespace lk = hcq::link;
namespace pt = hcq::paths;
namespace wl = hcq::wireless;

// Covers every hot-path family: cached linear (zf, mmse), cached tree search
// (kbest), QUBO sweep solvers (sa), and the hybrid (gsra).
lk::link_config base_config() {
    lk::link_config config;
    config.num_uses = 48;
    config.num_users = 2;
    config.mod = wl::modulation::qam16;
    config.snr_db = 14.0;
    config.paths = pt::parse_spec_list("zf,mmse,kbest,sa:reads=4,sweeps=40,gsra:reads=4");
    config.seed = 77;
    return config;
}

hcq::arq::arq_config two_retries() {
    hcq::arq::arq_config arq;
    arq.deadline_auto = true;
    arq.max_retx = 2;
    return arq;
}

/// The channel variations the workspace caches must stay invisible under.
struct channel_case {
    const char* label;
    const char* spec;  // nullptr = legacy i.i.d. Rayleigh draw
};

constexpr channel_case kChannels[] = {
    {"rayleigh", nullptr},
    {"jakes", "jakes:doppler_hz=30"},
    {"imperfect-csi", "rayleigh:est_err=0.05"},
};

void apply_channel(lk::link_config& config, const channel_case& c) {
    if (c.spec != nullptr) {
        config.channel_spec = wl::channel_spec::parse(c.spec);
    } else {
        config.channel_spec = std::nullopt;
    }
}

/// One path's recorded detection-domain statistics.  A zero `frames` count
/// marks a report section (ARQ, FEC) the configuration does not produce.
struct path_golden {
    std::uint64_t bit_errors;
    std::uint64_t total_bits;
    std::uint64_t exact_frames;
    double sum_ml_cost;
    struct {
        std::uint64_t frames, attempts, wrong_attempts, corrected_frames, residual_errors;
    } arq;
    struct {
        std::uint64_t frames, frame_errors, info_bit_errors;
    } fec;
};

/// Paths in base_config() order: zf, mmse, kbest, sa, gsra.
using channel_golden = std::array<path_golden, 5>;

// Indexed like kChannels.
constexpr channel_golden kOpenGolden[] = {
    {{{33, 384, 32, 0x1.96f92548ef38ap+6, {}, {}},
      {23, 384, 34, 0x1.572458c8e9275p+6, {}, {}},
      {26, 384, 37, 0x1.eccd985c2a3c4p+5, {}, {}},
      {30, 384, 35, 0x1.0c5e952394eb9p+6, {}, {}},
      {44, 384, 33, 0x1.7eb952d8b801ap+6, {}, {}}}},
    {{{31, 384, 32, 0x1.04e44b1f7fcecp+7, {}, {}},
      {30, 384, 33, 0x1.7af52badd55dep+6, {}, {}},
      {28, 384, 39, 0x1.0e1a708b9434fp+6, {}, {}},
      {26, 384, 38, 0x1.2961636927106p+6, {}, {}},
      {33, 384, 37, 0x1.3695b5612a1fbp+6, {}, {}}}},
    {{{67, 384, 19, 0x1.ef3b47f090882p+7, {}, {}},
      {48, 384, 23, 0x1.487ba1f102d36p+7, {}, {}},
      {47, 384, 25, 0x1.ba130958a0766p+6, {}, {}},
      {58, 384, 23, 0x1.f61b680c71112p+6, {}, {}},
      {68, 384, 23, 0x1.38de582ab2298p+7, {}, {}}}},
};

// num_uses = 32, two_retries().
constexpr channel_golden kArqGolden[] = {
    {{{14, 256, 24, 0x1.a69e0d9addd2bp+5, {32, 46, 16, 6, 2}, {}},
      {12, 256, 24, 0x1.ba2af4fbf565ap+5, {32, 46, 18, 4, 4}, {}},
      {15, 256, 25, 0x1.3348e6f901d4cp+5, {32, 41, 10, 6, 1}, {}},
      {19, 256, 24, 0x1.4f47d0bdf58adp+5, {32, 43, 12, 7, 1}, {}},
      {31, 256, 21, 0x1.1e9bd4e29ef1fp+6, {32, 46, 16, 9, 2}, {}}}},
    {{{15, 256, 23, 0x1.67191b74ba879p+6, {32, 43, 12, 8, 1}, {}},
      {12, 256, 25, 0x1.0082bcce79c0bp+6, {32, 41, 10, 6, 1}, {}},
      {8, 256, 29, 0x1.7046793c32a2ep+5, {32, 37, 7, 1, 2}, {}},
      {10, 256, 28, 0x1.8bc185c64b3c3p+5, {32, 38, 8, 2, 2}, {}},
      {13, 256, 27, 0x1.847ea87c6547p+5, {32, 39, 8, 4, 1}, {}}}},
    {{{43, 256, 14, 0x1.08fc53c4eadfep+7, {32, 61, 38, 9, 9}, {}},
      {32, 256, 15, 0x1.83fc479ec3639p+6, {32, 61, 39, 7, 10}, {}},
      {34, 256, 16, 0x1.0c9cef2c2d77dp+6, {32, 58, 31, 11, 5}, {}},
      {41, 256, 14, 0x1.473c925f9aa89p+6, {32, 62, 36, 12, 6}, {}},
      {48, 256, 15, 0x1.92a95ad29a2aep+6, {32, 61, 35, 11, 6}, {}}}},
};

// fec k3:interleave=4x8 (4 uses per frame), two_retries() chase combining.
constexpr channel_golden kCodedChaseGolden[] = {
    {{{34, 384, 31, 0x1.7de56012812dfp+6, {12, 12, 0, 0, 0}, {12, 0, 0}},
      {26, 384, 31, 0x1.61af59ee5dbc3p+6, {12, 12, 0, 0, 0}, {12, 0, 0}},
      {28, 384, 36, 0x1.d281662c778f6p+5, {12, 13, 1, 1, 0}, {12, 1, 2}},
      {26, 384, 35, 0x1.313c8189a31dbp+6, {12, 15, 3, 2, 0}, {12, 2, 3}},
      {45, 384, 31, 0x1.7edc2487ab82ap+6, {12, 18, 6, 5, 0}, {12, 5, 21}}}},
    {{{40, 384, 29, 0x1.15b800d7356b5p+7, {12, 15, 4, 1, 1}, {12, 2, 12}},
      {38, 384, 29, 0x1.ca718bd1f7139p+6, {12, 15, 4, 1, 1}, {12, 2, 15}},
      {31, 384, 38, 0x1.0dd4a7979c9d8p+6, {12, 15, 4, 1, 1}, {12, 2, 9}},
      {36, 384, 36, 0x1.37f4b0613eebp+6, {12, 17, 6, 3, 1}, {12, 4, 16}},
      {52, 384, 31, 0x1.7543de23e75d4p+6, {12, 21, 10, 6, 1}, {12, 7, 24}}}},
    {{{66, 384, 16, 0x1.37da9dfef26a3p+7, {12, 17, 5, 5, 0}, {12, 5, 10}},
      {60, 384, 18, 0x1.028079d54c371p+7, {12, 16, 4, 4, 0}, {12, 4, 9}},
      {46, 384, 27, 0x1.750e1a2d1e065p+6, {12, 14, 2, 2, 0}, {12, 2, 3}},
      {60, 384, 23, 0x1.910be2253cc71p+6, {12, 18, 7, 3, 1}, {12, 4, 12}},
      {69, 384, 22, 0x1.f866e880c5567p+6, {12, 19, 8, 5, 1}, {12, 6, 14}}}},
};

/// Every detection-domain statistic must match exactly — not approximately:
/// identical inputs through identical operation order.
void expect_golden(const lk::link_report& got, const channel_golden& want,
                   const std::string& trace) {
    ASSERT_EQ(got.paths.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
        SCOPED_TRACE(trace + " / " + got.paths[p].name);
        const auto& a = got.paths[p];
        const path_golden& b = want[p];
        EXPECT_EQ(a.ber.errors(), b.bit_errors);
        EXPECT_EQ(a.ber.total_bits(), b.total_bits);
        EXPECT_EQ(a.exact_frames, b.exact_frames);
        EXPECT_EQ(a.sum_ml_cost, b.sum_ml_cost);
        ASSERT_EQ(a.arq.has_value(), b.arq.frames > 0);
        if (a.arq) {
            EXPECT_EQ(a.arq->counters.frames, b.arq.frames);
            EXPECT_EQ(a.arq->counters.attempts, b.arq.attempts);
            EXPECT_EQ(a.arq->counters.wrong_attempts, b.arq.wrong_attempts);
            EXPECT_EQ(a.arq->counters.corrected_frames, b.arq.corrected_frames);
            EXPECT_EQ(a.arq->counters.residual_errors, b.arq.residual_errors);
        }
        ASSERT_EQ(a.fec.has_value(), b.fec.frames > 0);
        if (a.fec) {
            EXPECT_EQ(a.fec->frames, b.fec.frames);
            EXPECT_EQ(a.fec->frame_errors, b.fec.frame_errors);
            EXPECT_EQ(a.fec->info_ber.errors(), b.fec.info_bit_errors);
        }
    }
}

void run_matrix(lk::link_config config, const channel_golden (&golden)[3],
                const char* trace_prefix) {
    for (std::size_t c = 0; c < 3; ++c) {
        apply_channel(config, kChannels[c]);
        for (const std::size_t threads : {1UL, 2UL, 8UL}) {
            for (const std::size_t block : {64UL, 4096UL}) {
                config.num_threads = threads;
                config.stream_block = block;
                const auto got = lk::run_link_simulation(config);
                expect_golden(got, golden[c],
                              std::string(trace_prefix) + kChannels[c].label +
                                  " threads=" + std::to_string(threads) +
                                  " block=" + std::to_string(block));
            }
        }
    }
}

TEST(Workspace, OpenLoopStatisticsMatchLegacyPath) {
    run_matrix(base_config(), kOpenGolden, "open/");
}

TEST(Workspace, ArqChainsMatchLegacyPath) {
    auto config = base_config();
    config.num_uses = 32;
    config.arq = two_retries();
    run_matrix(config, kArqGolden, "arq/");
}

TEST(Workspace, CodedChaseChainsMatchLegacyPath) {
    auto config = base_config();
    config.fec = hcq::fec::code_spec::parse("k3:interleave=4x8");
    config.arq = two_retries();
    run_matrix(config, kCodedChaseGolden, "coded/");
}

}  // namespace
