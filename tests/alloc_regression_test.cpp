// Steady-state allocation regression gate for the workspace hot path.
//
// Replaces global operator new with a counting wrapper, warms a per-worker
// workspace up on a handful of channel uses, then pins the invariant the
// redesign promises: once warm, a full use — QUBO reduction (where the path
// needs one) plus detection/solve through run_block — performs ZERO heap
// allocations, for a cached linear path (zf), a sweep solver (sa), and the
// hybrid (gsra), even as the channel content changes use to use.  The same
// holds for the link's retransmission chain (link/retx_chain.h): a warm
// chain re-synthesises, re-reduces, re-detects and re-decodes a frame —
// uncoded ARQ and coded chase-combining HARQ alike — without allocating.
//
// This suite must NOT run under ASan/TSan (the sanitizers interpose their
// own allocator); scripts/verify.sh builds only its named suites for the
// sanitizer jobs, so keeping this file out of those lists is sufficient.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arq/arq.h"
#include "detect/transform.h"
#include "fec/code_spec.h"
#include "link/retx_chain.h"
#include "paths/detection_path.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/rng.h"
#include "wireless/mimo.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting wrappers for every replaceable allocation form the library can
// reach (plain, aligned, array).  Deallocation is not counted: the gate is
// about acquiring memory on the hot path.
void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) &
                                         ~(static_cast<std::size_t>(align) - 1))) {
        return p;
    }
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

namespace pt = hcq::paths;
namespace wl = hcq::wireless;
namespace dt = hcq::detect;
namespace lk = hcq::link;

wl::mimo_config four_by_four_qam16() {
    wl::mimo_config mimo;
    mimo.mod = wl::modulation::qam16;
    mimo.num_users = 4;
    mimo.num_antennas = 4;
    mimo.noise_variance = wl::noise_variance_for_snr(mimo.mod, 4, 16.0);
    return mimo;
}

/// Runs `spec` over rotating channel instances with one warm workspace and
/// returns the allocation count of the steady-state phase.
std::uint64_t steady_state_allocations(const char* spec) {
    const auto path = pt::registry::make(std::string(spec));
    const bool needs_qubo = path->needs_qubo();

    const wl::mimo_config mimo = four_by_four_qam16();

    // Distinct channel contents so the steady-state phase also exercises
    // decomposition-cache misses (restores into warm buffers, not allocs).
    hcq::util::rng synth_rng(7);
    std::vector<wl::mimo_instance> instances(4);
    for (auto& instance : instances) wl::synthesize_into(synth_rng, mimo, instance);

    pt::workspace ws;
    dt::ml_qubo mq;
    pt::path_result cell;
    hcq::util::rng solve_base(9);
    std::uint64_t use = 0;

    const auto run_use = [&](const wl::mimo_instance& instance) {
        if (needs_qubo) dt::ml_to_qubo_into(instance, ws.detect.qubo, mq);
        hcq::util::rng solve_rng = solve_base.derive(use++);
        const pt::path_context ctx{instance, needs_qubo ? &mq : nullptr, solve_rng, &ws};
        path->run_block(std::span<const pt::path_context>(&ctx, 1),
                        std::span<pt::path_result>(&cell, 1));
    };

    // Warm-up: two full passes size every scratch buffer to its high-water
    // mark (solver reads, cache slots, result vectors).
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& instance : instances) run_use(instance);
    }

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int pass = 0; pass < 3; ++pass) {
        for (const auto& instance : instances) run_use(instance);
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocRegression, ZfSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("zf"), 0U);
}

TEST(AllocRegression, SaSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("sa:reads=4,sweeps=40"), 0U);
}

TEST(AllocRegression, GsraSteadyStateIsAllocationFree) {
    EXPECT_EQ(steady_state_allocations("gsra:reads=4"), 0U);
}

/// Runs `spec` through the retransmission chain of four rotating frames
/// (their attempt-0 uses detected up front) with one warm chain and
/// workspace, and returns the allocation count of the steady-state phase.
/// deadline_us=0 makes every frame burn its full retry budget, so each
/// chain call re-synthesises, re-reduces and re-detects max_retx attempts.
/// `fec` empty runs the uncoded one-use frame; otherwise coded frames are
/// decoded from chase-combined LLRs.
std::uint64_t steady_state_chain_allocations(const char* spec, const char* fec) {
    const auto path = pt::registry::make(std::string(spec));
    const bool needs_qubo = path->needs_qubo();
    const bool coded = fec[0] != '\0';
    const std::size_t bits_per_use = 16;  // 4 users x 4 bits

    std::optional<lk::llr_decoder> llr;
    std::size_t uses_per_frame = 1;
    if (coded) {
        const auto code = hcq::fec::code_spec::parse(fec);
        llr.emplace(code, hcq::arq::combining_mode::chase, bits_per_use);
        uses_per_frame = (code.coded_bits() + bits_per_use - 1) / bits_per_use;
    }
    const lk::retx_setup setup{.mimo = four_by_four_qam16(),
                               .process = nullptr,
                               .csi_est_err = 0.0,
                               .synth_base = hcq::util::rng(11),
                               .solve_base = hcq::util::rng(12),
                               .num_paths = 1,
                               .uses_per_frame = uses_per_frame,
                               .arq = hcq::arq::parse_arq(
                                   "deadline_us=0,max_retx=2,combining=chase")};

    // Four frames' attempt-0 uses and detections (with LLRs when coded).
    constexpr std::size_t frames = 4;
    pt::workspace ws;
    hcq::util::rng rng(13);
    std::vector<std::vector<std::uint8_t>> info(frames);
    std::vector<std::vector<std::uint8_t>> coded_bits(frames);
    std::vector<wl::mimo_instance> instances(frames * uses_per_frame);
    std::vector<dt::ml_qubo> mqs(instances.size());
    std::vector<pt::path_result> first(instances.size());
    std::vector<std::uint8_t> use_bits;
    for (std::size_t f = 0; f < frames; ++f) {
        if (coded) {
            rng.bits_into(llr->codec().info_bits(), info[f]);
            llr->codec().encode_frame(info[f], coded_bits[f]);
        }
        for (std::size_t j = 0; j < uses_per_frame; ++j) {
            const std::size_t i = f * uses_per_frame + j;
            if (coded) lk::pad_use_bits(coded_bits[f], j, bits_per_use, use_bits);
            wl::synthesize_coded_into(rng, setup.mimo, use_bits, instances[i]);
            if (needs_qubo) mqs[i] = dt::ml_to_qubo(instances[i]);
            hcq::util::rng solve_rng = rng.derive(i);
            const pt::path_context ctx{instances[i], needs_qubo ? &mqs[i] : nullptr, solve_rng,
                                       &ws};
            first[i] = path->run(ctx);
            if (coded) path->soft_output(ctx, first[i]);
        }
    }

    lk::retx_chain chain(setup);
    lk::bits_decoder bits;
    lk::frame_outcome outcome;
    const auto run_frame = [&](std::size_t f) {
        const std::size_t i0 = f * uses_per_frame;
        chain.begin_frame(i0, coded_bits[f]);
        lk::frame_decoder* decoder = &bits;
        if (coded) {
            llr->begin(info[f], outcome.decoded0);
            decoder = &*llr;
        }
        chain.run(*path, 0, std::span<const wl::mimo_instance>(instances).subspan(i0, uses_per_frame),
                  std::span<const pt::path_result>(first).subspan(i0, uses_per_frame), *decoder,
                  ws, outcome);
        EXPECT_EQ(outcome.attempts, 3U);  // deadline_us=0: the full budget
    };

    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t f = 0; f < frames; ++f) run_frame(f);
    }
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t f = 0; f < frames; ++f) run_frame(f);
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocRegression, UncodedArqChainIsAllocationFree) {
    EXPECT_EQ(steady_state_chain_allocations("sa:reads=4,sweeps=40", ""), 0U);
    EXPECT_EQ(steady_state_chain_allocations("kbest", ""), 0U);
}

TEST(AllocRegression, CodedChaseHarqChainIsAllocationFree) {
    EXPECT_EQ(steady_state_chain_allocations("zf", "k7"), 0U);
    EXPECT_EQ(steady_state_chain_allocations("gsra:reads=4", "k7"), 0U);
}

// The counter itself must be live, or the zeros above prove nothing.
TEST(AllocRegression, CounterObservesAllocations) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    std::vector<double>* v = new std::vector<double>(1024);
    delete v;
    EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
