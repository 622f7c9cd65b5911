// Kernel micro-benchmarks (google-benchmark): the per-operation costs that
// determine how many emulated anneal reads per second the library sustains,
// plus the classical detectors' costs (relevant to Section 5's classical-
// initialiser tradeoff).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "classical/greedy.h"
#include "classical/metropolis.h"
#include "core/device.h"
#include "core/experiment.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/sphere.h"
#include "detect/transform.h"
#include "qubo/generator.h"
#include "util/rng.h"

namespace {

namespace an = hcq::anneal;
namespace hy = hcq::hybrid;
namespace wl = hcq::wireless;

const hy::experiment_instance& instance32() {
    static const hy::experiment_instance e = [] {
        hcq::util::rng rng(7);
        return hy::make_paper_instance(rng, 8, wl::modulation::qam16);
    }();
    return e;
}

void bm_qubo_energy(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    hcq::util::rng rng(n);
    const auto q = hcq::qubo::random_qubo(rng, n);
    const auto bits = rng.bits(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.energy(bits));
    }
}
BENCHMARK(bm_qubo_energy)->Arg(16)->Arg(36)->Arg(64);

void bm_flip_delta(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    hcq::util::rng rng(n);
    const auto q = hcq::qubo::random_qubo(rng, n);
    const auto bits = rng.bits(n);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.flip_delta(i, bits));
        i = (i + 1) % n;
    }
}
BENCHMARK(bm_flip_delta)->Arg(36)->Arg(64);

void bm_metropolis_sweep(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    hcq::util::rng rng(n);
    const auto q = hcq::qubo::random_qubo(rng, n);
    hcq::solvers::metropolis_engine engine(q, rng.bits(n));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.sweep(0.5, rng));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(bm_metropolis_sweep)->Arg(16)->Arg(36)->Arg(64);

void bm_greedy_search(benchmark::State& state) {
    const auto& e = instance32();
    hcq::util::rng rng(11);
    const hcq::solvers::greedy_search gs;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gs.initialize(e.reduced.model, rng));
    }
}
BENCHMARK(bm_greedy_search);

void bm_ml_to_qubo_transform(benchmark::State& state) {
    const auto& e = instance32();
    for (auto _ : state) {
        benchmark::DoNotOptimize(hcq::detect::ml_to_qubo(e.instance));
    }
}
BENCHMARK(bm_ml_to_qubo_transform);

void bm_anneal_read_ra(benchmark::State& state) {
    const auto& e = instance32();
    const an::annealer_emulator device;
    const auto schedule = an::anneal_schedule::reverse(0.45, 1.0);
    hcq::util::rng rng(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            device.anneal_once(e.reduced.model, schedule, rng, e.optimal_bits));
    }
}
BENCHMARK(bm_anneal_read_ra);

void bm_anneal_read_fa(benchmark::State& state) {
    const auto& e = instance32();
    const an::annealer_emulator device;
    const auto schedule = an::anneal_schedule::forward(1.0, 0.41, 1.0);
    hcq::util::rng rng(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(device.anneal_once(e.reduced.model, schedule, rng));
    }
}
BENCHMARK(bm_anneal_read_fa);

void bm_detector_zf(benchmark::State& state) {
    const auto& e = instance32();
    const hcq::detect::zf_detector det;
    for (auto _ : state) {
        benchmark::DoNotOptimize(det.detect(e.instance));
    }
}
BENCHMARK(bm_detector_zf);

void bm_detector_kbest8(benchmark::State& state) {
    const auto& e = instance32();
    const hcq::detect::kbest_detector det(8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(det.detect(e.instance));
    }
}
BENCHMARK(bm_detector_kbest8);

void bm_detector_sphere_noiseless(benchmark::State& state) {
    const auto& e = instance32();
    const hcq::detect::sphere_detector det;
    for (auto _ : state) {
        benchmark::DoNotOptimize(det.detect(e.instance));
    }
}
BENCHMARK(bm_detector_sphere_noiseless);

// Derived-stream costs of util::rng: a stream nobody draws from, a stream's
// first draw (seeding plus one twist), and one full state block of draws.
void bm_rng_derive(benchmark::State& state) {
    const hcq::util::rng base(17);
    std::uint64_t stream = 0;
    for (auto _ : state) {
        hcq::util::rng r = base.derive(stream++);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(bm_rng_derive);

void bm_rng_derive_first_draw(benchmark::State& state) {
    const hcq::util::rng base(17);
    std::uint64_t stream = 0;
    for (auto _ : state) {
        hcq::util::rng r = base.derive(stream++);
        benchmark::DoNotOptimize(r());
    }
}
BENCHMARK(bm_rng_derive_first_draw);

void bm_rng_steady_draws(benchmark::State& state) {
    hcq::util::rng r(17);
    for (auto _ : state) {
        for (int i = 0; i < 312; ++i) benchmark::DoNotOptimize(r());
    }
}
BENCHMARK(bm_rng_steady_draws);

}  // namespace

BENCHMARK_MAIN();
