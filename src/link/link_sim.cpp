#include "link/link_sim.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "link/retx_chain.h"
#include "metrics/stats.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "wireless/mimo.h"

namespace hcq::link {
namespace {

// Stream-id tags keeping channel-use synthesis draws disjoint from solver
// draws (same scheme as parallel_runner::sweep_stream_domain); the canonical
// values live in link_sim.h (stream_domains) because the serving front end
// derives from the same domains to reproduce served batches bit-for-bit.
//
// ARQ retransmission streams (arq_synthesis / arq_solve) are indexed by
// (use, attempt) globally; see link/retx_chain.h.
//
// Correlated-fading tap parameters (wireless/channel_spec.h) freeze from the
// fading stream — disjoint from every domain above, so configuring a channel
// spec never perturbs the synthesis/solve draws, and `--channel` unset
// stays byte-identical to the pre-spec implementation.
constexpr std::uint64_t synth_stream_domain = stream_domains::synthesis;
constexpr std::uint64_t solve_stream_domain = stream_domains::solve;
constexpr std::uint64_t arq_synth_domain = stream_domains::arq_synthesis;
constexpr std::uint64_t arq_solve_domain = stream_domains::arq_solve;
constexpr std::uint64_t fading_stream_domain = stream_domains::fading;
constexpr std::uint64_t fec_stream_domain = stream_domains::fec;

void validate(const link_config& config) {
    if (config.num_uses == 0) throw std::invalid_argument("link: zero channel uses");
    if (config.num_users == 0) throw std::invalid_argument("link: zero users");
    if (config.paths.empty()) throw std::invalid_argument("link: no detection paths");
    if (!(config.offered_load > 0.0) || !std::isfinite(config.offered_load)) {
        throw std::invalid_argument("link: offered load must be positive and finite");
    }
    if (config.buffer_capacity == 0) {
        throw std::invalid_argument(
            "link: buffer capacity 0 can never admit work; use >= 1 or "
            "pipeline::unbounded_capacity");
    }
    if (config.stream_block == 0) throw std::invalid_argument("link: zero stream block");
}

/// Shared setup of the measured-trace tandem-queue replay: the staged
/// service models and the arrival pacing — used by both the open-loop
/// replay and the ARQ closed-loop replay so the two see identical load.
struct replay_setup {
    std::vector<pipeline::stage> stages;
    double interarrival_us = 0.0;
    pipeline::sim_options options;
};

replay_setup build_replay(const path_report& path, const link_config& config) {
    replay_setup setup;
    double bottleneck_us = 0.0;
    for (std::size_t s = 0; s < path.stages.size(); ++s) {
        const auto& trace = path.stages[s];
        const std::size_t servers = path.stage_servers[s];
        setup.stages.push_back(pipeline::stage::from_trace(trace.name(), trace.replay_sample())
                                   .with_servers(servers));
        // Pace arrivals by the mean of the sample actually being replayed,
        // so the requested load is honoured against the cycled trace even
        // where the strided sample and the full-stream digest mean differ
        // slightly.  A stage bank of S devices drains S times faster than
        // one.
        metrics::running_stats sample_stats;
        for (const double v : trace.replay_sample()) sample_stats.add(v);
        bottleneck_us = std::max(bottleneck_us, sample_stats.mean() / static_cast<double>(servers));
    }
    // Arrivals pace the bottleneck at the configured load; the floor guards
    // against a degenerate all-zero trace from timer quantisation.
    setup.interarrival_us = std::max(bottleneck_us / config.offered_load, 1e-3);
    // Constant-memory replay: bounded buffers per the config, percentiles
    // from the digest instead of an O(uses) latency vector.
    setup.options = pipeline::sim_options{.buffer_capacity = config.buffer_capacity,
                                          .policy = config.policy,
                                          .record_latencies = false};
    return setup;
}

/// Replays one path's measured traces: open loop, then — with ARQ on —
/// closed loop over the same replay setup.  Touches only `path` and seeds
/// its own streams, so paths replay concurrently.
void replay_path(path_report& path, const link_config& config) {
    const replay_setup setup = build_replay(path, config);
    util::rng arrivals_rng(config.seed);  // unused by deterministic arrivals
    path.replay = pipeline::simulate(setup.stages, config.num_uses,
                                     {.interarrival_us = setup.interarrival_us}, arrivals_rng,
                                     setup.options);
    if (!config.arq) return;
    // Closed-loop replay: same stages and pacing as the open-loop replay,
    // with failed frames re-entering the chain.  `auto` deadlines resolve to
    // the open-loop replay's p99 — the ARQ loop driven by the replay's own
    // latency budget.  With FEC on, the measured attempt_error_rate is
    // frame-based while the replayed jobs are still per-use attempts — a
    // documented approximation (the coded frame's uses share fate).
    arq_path_report& ar = *path.arq;
    const double resolved_deadline_us =
        config.arq->deadline_auto ? path.replay.p99_latency_us : config.arq->deadline_us;
    util::rng replay_rng(config.seed);
    auto closed = arq::closed_loop_replay(
        setup.stages, config.num_uses, ar.counters.attempt_error_rate(), resolved_deadline_us,
        config.arq->max_retx, {.interarrival_us = setup.interarrival_us}, replay_rng,
        setup.options);
    ar.replay_stats = closed.stats;
    ar.closed_replay = std::move(closed.replay);
}

/// Everything one pool worker reuses across windows: its detection
/// workspace, its retransmission chain with both decode steps, the
/// zero-padded coded bits of one use, and the solve streams and contexts of
/// one claimed run of uses.  Holds no statistic: which worker runs a cell never
/// changes what the cell computes.
struct link_worker {
    link_worker(const retx_setup& setup, const link_config& config, std::size_t bits_per_use)
        : chain(setup) {
        if (config.fec) {
            llr.emplace(*config.fec,
                        config.arq ? config.arq->combining : arq::combining_mode::plain,
                        bits_per_use);
        }
    }
    paths::workspace ws;
    retx_chain chain;
    bits_decoder bits;
    std::optional<llr_decoder> llr;  ///< coded link only
    std::vector<std::uint8_t> use_bits;
    std::vector<util::rng> rngs;
    std::vector<paths::path_context> ctxs;
};

}  // namespace

stage_trace::stage_trace(std::string name, std::size_t sample_stride)
    : name_(std::move(name)), sample_stride_(std::max<std::size_t>(sample_stride, 1)) {}

stage_trace::stage_trace(std::string name, const std::vector<double>& service_us)
    : stage_trace(std::move(name)) {
    for (const double v : service_us) add(v);
}

void stage_trace::add(double service_us) {
    const std::uint64_t index = digest_.count();
    digest_.add(service_us);
    if (index % sample_stride_ == 0 && sample_.size() < replay_sample_capacity) {
        sample_.push_back(service_us);
    }
}

double burst_stats::mean_burst_length() const noexcept {
    if (bursts == 0) return 0.0;
    return static_cast<double>(error_frames) / static_cast<double>(bursts);
}

double fec_path_report::coded_fer() const noexcept {
    return frames > 0 ? static_cast<double>(frame_errors) / static_cast<double>(frames) : 0.0;
}

std::vector<std::string> path_report::stage_names() const {
    std::vector<std::string> names;
    names.reserve(stages.size());
    for (const auto& trace : stages) names.push_back(trace.name());
    return names;
}

const path_report& link_report::path(std::string_view query) const {
    for (const auto& p : paths) {
        if (p.kind == query || p.name == query || p.spec == query) return p;
    }
    throw std::out_of_range("link_report: no such path: " + std::string(query));
}

link_report run_link_simulation(const link_config& config) {
    validate(config);

    // Resolve every spec through the registry once; the paths are shared
    // read-only across workers.  Exact duplicates (same canonical spec)
    // would report two indistinguishable columns, so they are rejected —
    // but two *different* specs of the same kind (e.g. two K-best widths)
    // are a legitimate side-by-side comparison.
    const auto paths = paths::registry::make_all(config.paths);
    std::vector<std::string> canonical(paths.size());
    for (std::size_t p = 0; p < paths.size(); ++p) canonical[p] = paths[p]->spec().to_string();
    for (std::size_t a = 0; a < canonical.size(); ++a) {
        for (std::size_t b = a + 1; b < canonical.size(); ++b) {
            if (canonical[a] == canonical[b]) {
                throw std::invalid_argument("link: duplicate detection path '" + canonical[a] +
                                            "'");
            }
        }
    }

    const std::size_t num_paths = paths.size();
    const bool needs_qubo = std::any_of(paths.begin(), paths.end(),
                                        [](const auto& path) { return path->needs_qubo(); });

    // Replay samples stride uniformly across the stream so long replays are
    // not driven by warm-up-era service times alone.
    const std::size_t sample_stride =
        (config.num_uses + stage_trace::replay_sample_capacity - 1) /
        stage_trace::replay_sample_capacity;

    link_report report;
    report.config = config;
    report.synthesis = stage_trace("synth", sample_stride);
    report.reduction = stage_trace("qubo", sample_stride);
    report.paths.resize(num_paths);
    std::vector<std::vector<std::string>> solve_stages(num_paths);
    std::vector<std::size_t> first_solve_stage(num_paths);
    for (std::size_t p = 0; p < num_paths; ++p) {
        path_report& path = report.paths[p];
        path.kind = paths[p]->spec().kind;
        path.name = paths[p]->name();
        path.spec = canonical[p];
        path.service = stage_trace("service", sample_stride);

        solve_stages[p] = paths[p]->stage_names();
        const auto solve_servers = paths[p]->stage_servers();
        if (solve_servers.size() != solve_stages[p].size()) {
            throw std::logic_error("link: path '" + path.spec + "' declares " +
                                   std::to_string(solve_servers.size()) +
                                   " stage server counts for " +
                                   std::to_string(solve_stages[p].size()) + " stages");
        }
        path.stages.emplace_back("synth", sample_stride);
        path.stage_servers.push_back(1);
        if (paths[p]->needs_qubo()) {
            path.stages.emplace_back("qubo", sample_stride);
            path.stage_servers.push_back(1);
        }
        first_solve_stage[p] = path.stages.size();
        for (std::size_t s = 0; s < solve_stages[p].size(); ++s) {
            path.stages.emplace_back(solve_stages[p][s], sample_stride);
            path.stage_servers.push_back(solve_servers[s]);
        }
        if (config.fec) path.fec.emplace();
        if (config.arq) {
            path.arq.emplace();
            path.arq->retx_service = stage_trace("retx service", sample_stride);
        }
    }

    const util::rng synth_base = util::rng(config.seed).derive(synth_stream_domain);
    const util::rng solve_base = util::rng(config.seed).derive(solve_stream_domain);
    const util::rng fec_base = util::rng(config.seed).derive(fec_stream_domain);

    // Realistic-channel spec resolution: one frozen channel realisation per
    // run (correlated taps drawn from the dedicated fading domain), plus the
    // spec's SNR override and CSI estimation-error variance.  nullopt keeps
    // the legacy draw_channel path — and its byte stream — untouched.
    const double snr_db = (config.channel_spec && config.channel_spec->snr_db)
                              ? *config.channel_spec->snr_db
                              : config.snr_db;
    const double csi_est_err = config.channel_spec ? config.channel_spec->est_err : 0.0;
    std::unique_ptr<const wireless::channel_process> process;
    if (config.channel_spec) {
        process = wireless::make_channel_process(
            *config.channel_spec, config.num_users, config.num_users,
            util::rng(config.seed).derive(fading_stream_domain));
    }

    // Coded-link geometry.  One coded frame (rows x cols interleaved bits)
    // spans ceil(coded_bits / bits_per_use) consecutive channel uses with the
    // final use zero-padded; the stream must carry whole frames.  The
    // uncoded link is the one-use frame.
    const bool coded = config.fec.has_value();
    const std::size_t bits_per_use = config.num_users * wireless::bits_per_symbol(config.mod);
    const std::size_t coded_bits = coded ? config.fec->coded_bits() : 0;
    const std::size_t uses_per_frame =
        coded ? (coded_bits + bits_per_use - 1) / bits_per_use : 1;
    if (coded && config.num_uses % uses_per_frame != 0) {
        throw std::invalid_argument(
            "link: num_uses (" + std::to_string(config.num_uses) +
            ") must be a whole number of coded frames — '" + config.fec->to_string() +
            "' spans " + std::to_string(uses_per_frame) + " uses per frame at " +
            std::to_string(bits_per_use) + " bits per use");
    }

    // The stream is processed in fixed-size windows, each in two parallel
    // regions.  (1) One region of fused tasks: a task claims a run of whole
    // frames and, on one worker, synthesises them and builds their shared
    // QUBO reductions (per coded FRAME when FEC is on: the frame's info bits
    // are drawn, encoded, and spread over its uses), detects them on every
    // path through detection_path::run_block — plus the explicit
    // soft_output call when FEC is on — and decodes every (frame, path) and
    // runs its retransmission chain (link/retx_chain.h) when FEC or ARQ is
    // on, so a channel use is made and consumed in one core's cache.  Tasks
    // fill disjoint slots.  (2) The fold: one task per path folds that
    // path's column of the window in use order into the constant-size
    // aggregates above, and one more task folds the shared synthesis and
    // reduction traces.  All buffers below persist across windows, so after
    // the first window the steady state reuses their capacity; peak memory
    // is O(stream_block x paths), independent of num_uses.
    std::size_t block = std::min(config.stream_block, config.num_uses);
    if (coded) {
        // Whole frames per window: round the block down to a frame multiple
        // (at least one frame).  Pure scheduling — every draw, solve, and
        // decode is indexed by its GLOBAL use/frame index, so the rounding
        // affects no statistic (the invariance tests cover coded runs).
        block = std::max(uses_per_frame, block / uses_per_frame * uses_per_frame);
    }
    const bool chained = coded || config.arq.has_value();
    const std::size_t frames_per_block = block / uses_per_frame;
    std::vector<wireless::mimo_instance> instances(block);
    std::vector<detect::ml_qubo> mqs(needs_qubo ? block : 0);
    std::vector<double> synth_us(block, 0.0);
    std::vector<double> reduce_us(block, 0.0);
    std::vector<paths::path_result> cells(num_paths * block);  // path-major: [p * block + i]
    // Per-frame info/coded bits of the coded link (shared by every path) and
    // the path-major per-frame outcome cells of the retransmission chains.
    std::vector<qubo::bit_vector> frame_info(coded ? frames_per_block : 0);
    std::vector<qubo::bit_vector> frame_coded(coded ? frames_per_block : 0);
    std::vector<frame_outcome> frame_cells(chained ? num_paths * frames_per_block : 0);

    const wireless::mimo_config mimo = [&] {
        wireless::mimo_config m;
        m.mod = config.mod;
        m.num_users = config.num_users;
        m.num_antennas = config.num_users;
        m.channel = config.channel;
        m.noise_variance = config.noiseless
                               ? 0.0
                               : wireless::noise_variance_for_snr(config.mod, config.num_users,
                                                                  snr_db);
        return m;
    }();
    const retx_setup retx{.mimo = mimo,
                          .process = process.get(),
                          .csi_est_err = csi_est_err,
                          .synth_base = util::rng(config.seed).derive(arq_synth_domain),
                          .solve_base = util::rng(config.seed).derive(arq_solve_domain),
                          .num_paths = num_paths,
                          .uses_per_frame = uses_per_frame,
                          .arq = config.arq};

    // Per-path length of the error run currently open in path p's fold —
    // carried across windows so burst statistics are stream_block-invariant.
    std::vector<std::uint64_t> error_run(num_paths, 0);

    // One pool for the whole stream, and one link_worker per pool worker (a
    // single one when num_threads == 1 degrades to a serial loop), built
    // here on the calling thread so spec errors surface before any work.
    std::optional<util::thread_pool> pool;
    if (config.num_threads != 1 && block > 1) pool.emplace(config.num_threads);
    std::vector<std::unique_ptr<link_worker>> workers(pool ? pool->size() : 1);
    for (auto& worker : workers) worker = std::make_unique<link_worker>(retx, config, bits_per_use);

    // Runs task(worker, lo, hi) over consecutive claims [lo, hi) that cover
    // [0, count) exactly once.  A claim is `unit` items until the tail,
    // where claims shrink to remaining / (2 x workers) items (at least one),
    // so the window drains in small pieces instead of leaving a worker idle
    // behind one large unit.  Each pool worker claims off a shared counter
    // and runs its claims on its own link_worker.  Pure scheduling: every
    // slot is indexed globally, so no statistic depends on it.  A task that
    // throws ends its worker's loop; the others drain the rest and
    // wait_idle rethrows on the calling thread.
    const auto run_claims = [&](std::size_t count, std::size_t unit, const auto& task) {
        const std::size_t spread = 2 * workers.size();
        const auto claim_end = [&](std::size_t lo) {
            return lo + std::clamp<std::size_t>((count - lo) / spread, 1, unit);
        };
        if (!pool || count < 2) {
            for (std::size_t lo = 0, hi = 0; lo < count; lo = hi) {
                hi = claim_end(lo);
                task(*workers[0], lo, hi);
            }
            return;
        }
        std::atomic<std::size_t> next{0};
        for (auto& worker : workers) {
            pool->submit([&, w = worker.get()] {
                std::size_t lo = next.load();
                while (lo < count) {
                    const std::size_t hi = claim_end(lo);
                    if (next.compare_exchange_weak(lo, hi)) {
                        task(*w, lo, hi);
                        lo = next.load();
                    }
                }
            });
        }
        pool->wait_idle();
    };
    // The fused unit: about window / (32 x workers) uses, enough claims per
    // worker to balance an ARQ-heavy stretch, capped at 64 uses so a claim's
    // uses stay cache-resident, and never less than one whole frame.
    const auto frame_unit = [&](std::size_t window) {
        const std::size_t uses = std::min<std::size_t>(64, window / (32 * workers.size()));
        return std::max<std::size_t>(1, uses / uses_per_frame);
    };

    for (std::size_t base = 0; base < config.num_uses; base += block) {
        const std::size_t window = std::min(block, config.num_uses - base);
        const std::size_t window_frames = window / uses_per_frame;
        // Synthesise one channel use (channel draw + modulation) and build
        // its shared QUBO reduction (QuAMax transform).  The reduction is
        // shared by the QUBO-based paths and skipped — trace stays zero —
        // when only conventional detectors are configured.
        const auto synth_use = [&](link_worker& w, std::size_t i,
                                   std::span<const std::uint8_t> use_bits) {
            const std::size_t u = base + i;
            util::rng synth_rng = synth_base.derive(u);
            wireless::mimo_instance& instance = instances[i];
            util::timer synth_clock;
            if (process) {
                wireless::synthesize_at_coded_into(synth_rng, mimo, *process,
                                                   static_cast<double>(u), csi_est_err,
                                                   use_bits, instance);
            } else {
                wireless::synthesize_coded_into(synth_rng, mimo, use_bits, instance);
            }
            synth_us[i] = synth_clock.elapsed_us();

            reduce_us[i] = 0.0;
            if (needs_qubo) {
                util::timer reduce_clock;
                detect::ml_to_qubo_into(instance, w.ws.detect.qubo, mqs[i]);
                reduce_us[i] = reduce_clock.elapsed_us();
            }
        };
        // Synthesis works frame-at-a-time.  A coded frame draws its
        // information bits from the dedicated fec stream (indexed by GLOBAL
        // frame), encodes + interleaves them once, then synthesises its uses
        // with the coded bits overriding the (still consumed) uniform tx-bit
        // draws; an uncoded frame is one plain use.
        const auto synth_frame = [&](link_worker& w, std::size_t fi) {
            if (!coded) {
                synth_use(w, fi, {});
                return;
            }
            fec::codec& codec = w.llr->codec();
            const std::size_t f = base / uses_per_frame + fi;  // global frame index
            util::rng info_rng = fec_base.derive(f);
            info_rng.bits_into(codec.info_bits(), frame_info[fi]);
            codec.encode_frame(frame_info[fi], frame_coded[fi]);
            for (std::size_t j = 0; j < uses_per_frame; ++j) {
                pad_use_bits(frame_coded[fi], j, bits_per_use, w.use_bits);
                synth_use(w, fi * uses_per_frame + j, w.use_bits);
            }
        };
        // Every configured path detects the uses [i0, i0 + n), batched
        // through one run_block call per path.  Each (use, path) cell draws
        // from its own derived stream indexed by the GLOBAL use index, so
        // statistics do not depend on the window size, the claim size, or
        // which worker — and hence which workspace — runs a given claim.
        const auto detect_uses = [&](link_worker& w, std::size_t i0, std::size_t n) {
            w.rngs.resize(n);
            for (std::size_t p = 0; p < num_paths; ++p) {
                w.ctxs.clear();  // keeps capacity across claims
                for (std::size_t j = 0; j < n; ++j) {
                    w.rngs[j] = solve_base.derive((base + i0 + j) * num_paths + p);
                    w.ctxs.push_back({instances[i0 + j], needs_qubo ? &mqs[i0 + j] : nullptr,
                                      w.rngs[j], &w.ws});
                }
                const auto out = std::span<paths::path_result>(cells).subspan(p * block + i0, n);
                paths[p]->run_block(w.ctxs, out);
                if (coded) {
                    // The coded link needs soft information: the explicit
                    // opt-in second call of the path API, on the same
                    // contexts the hard run saw.  Deterministic and
                    // workspace-independent by the soft_output contract, so
                    // LLRs inherit the invariances.
                    for (std::size_t j = 0; j < n; ++j) paths[p]->soft_output(w.ctxs[j], out[j]);
                }
            }
        };
        // With FEC or ARQ on, decode every (frame, path) — a bits comparison
        // uncoded, a soft-Viterbi decode coded — and run its retransmission
        // chain.  The chain memoises each retransmitted use across the
        // frame's paths, so one worker runs all paths of a frame.
        const auto chain_frame = [&](link_worker& w, std::size_t fi) {
            const std::size_t i0 = fi * uses_per_frame;
            w.chain.begin_frame(base + i0, coded ? std::span<const std::uint8_t>(frame_coded[fi])
                                                 : std::span<const std::uint8_t>());
            const auto frame_uses =
                std::span<const wireless::mimo_instance>(instances).subspan(i0, uses_per_frame);
            for (std::size_t p = 0; p < num_paths; ++p) {
                frame_outcome& outcome = frame_cells[p * frames_per_block + fi];
                frame_decoder* decoder = &w.bits;
                if (coded) {
                    w.llr->begin(frame_info[fi], outcome.decoded0);
                    decoder = &*w.llr;
                }
                w.chain.run(*paths[p], p, frame_uses,
                            std::span<const paths::path_result>(cells).subspan(p * block + i0,
                                                                                uses_per_frame),
                            *decoder, w.ws, outcome);
            }
        };
        // Region 1: the fused tasks, one claimed run of frames each.
        run_claims(window_frames, frame_unit(window),
                   [&](link_worker& w, std::size_t f_lo, std::size_t f_hi) {
                       for (std::size_t fi = f_lo; fi < f_hi; ++fi) synth_frame(w, fi);
                       detect_uses(w, f_lo * uses_per_frame, (f_hi - f_lo) * uses_per_frame);
                       for (std::size_t fi = f_lo; chained && fi < f_hi; ++fi) chain_frame(w, fi);
                   });

        // Path p's fold, in use order and then in frame order: every
        // statistic of the path depends only on its own column, so the paths
        // fold concurrently and each stays scheduling-independent.
        const auto fold_path = [&](std::size_t p) {
            path_report& path = report.paths[p];
            for (std::size_t i = 0; i < window; ++i) {
                const paths::path_result& cell = cells[p * block + i];
                if (cell.stages.size() != solve_stages[p].size()) {
                    throw std::logic_error("link: path '" + path.spec + "' returned " +
                                           std::to_string(cell.stages.size()) +
                                           " stage timings but declared " +
                                           std::to_string(solve_stages[p].size()));
                }
                const qubo::bit_vector& tx_bits = instances[i].tx_bits;
                path.ber.add_frame(tx_bits, cell.bits);
                if (cell.bits == tx_bits) {
                    ++path.exact_frames;
                    error_run[p] = 0;
                } else {
                    ++path.bursts.error_frames;
                    if (++error_run[p] == 1) ++path.bursts.bursts;
                    path.bursts.longest_burst = std::max(path.bursts.longest_burst, error_run[p]);
                }
                path.sum_ml_cost += cell.ml_cost;

                path.stages[0].add(synth_us[i]);
                double service_sum = 0.0;
                if (first_solve_stage[p] == 2) {  // has the shared qubo stage
                    path.stages[1].add(reduce_us[i]);
                    service_sum += reduce_us[i];
                }
                for (std::size_t s = 0; s < cell.stages.size(); ++s) {
                    path.stages[first_solve_stage[p] + s].add(cell.stages[s].service_us);
                    service_sum += cell.stages[s].service_us;
                }
                path.service.add(service_sum);
            }
            // Attempt-0 decode statistics of the coded link and the ARQ
            // counters (at frame granularity when coded, per use when
            // uncoded).
            for (std::size_t fi = 0; chained && fi < window_frames; ++fi) {
                const frame_outcome& outcome = frame_cells[p * frames_per_block + fi];
                if (coded) {
                    ++path.fec->frames;
                    if (!outcome.first_ok) ++path.fec->frame_errors;
                    path.fec->info_ber.add_frame(frame_info[fi], outcome.decoded0);
                }
                if (config.arq) {
                    path.arq->counters.add_frame(outcome.attempts, outcome.wrong,
                                                 outcome.first_ok, outcome.final_ok);
                    for (const double s_us : outcome.retx_service_us) {
                        path.arq->retx_service.add(s_us);
                    }
                }
            }
        };
        // Region 2: the fold — one task per path, plus one short pass over
        // the shared synthesis and reduction traces.
        run_claims(num_paths + 1, 1, [&](link_worker&, std::size_t task, std::size_t) {
            if (task < num_paths) {
                fold_path(task);
                return;
            }
            for (std::size_t i = 0; i < window; ++i) {
                report.synthesis.add(synth_us[i]);
                report.reduction.add(reduce_us[i]);
            }
        });
    }

    // Each path's trace replays, one task per path.
    run_claims(num_paths, 1, [&](link_worker&, std::size_t p, std::size_t) {
        replay_path(report.paths[p], config);
    });
    return report;
}

util::table summary_table(const link_report& report) {
    const bool fec_on = report.config.fec.has_value();
    const bool arq_on = report.config.arq.has_value();
    std::vector<std::string> headers{"path", "BER", "bit errs", "exact uses", "err burst",
                                     "svc mean us",
                                     "svc p50 us", "svc p99 us", "thrpt use/ms", "p50 lat us",
                                     "p99 lat us", "drop rate", "peak queue"};
    if (fec_on) {
        // Attempt-0 coded statistics (detection domain, bit-identical): the
        // raw BER columns to the left stay the uncoded per-use view.
        headers.insert(headers.end(), {"coded FER", "coded BER"});
    }
    if (arq_on) {
        // Detection-domain residual FER / retx rate (bit-identical), then
        // timing-domain deadline-miss rate / goodput (closed-loop replay).
        headers.insert(headers.end(),
                       {"resid FER", "retx rate", "miss rate", "goodput use/ms"});
    }
    util::table t(std::move(headers));
    for (const auto& path : report.paths) {
        // Per-path service: everything downstream of the shared synthesis
        // stage (for the hybrid that is qubo + classical + quantum).
        std::size_t peak_queue = 0;
        for (const std::size_t q : path.replay.max_queue_len) {
            peak_queue = std::max(peak_queue, q);
        }
        std::vector<std::string> row{path.name,
                                     util::format_double(path.ber.rate(), 5),
                                     std::to_string(path.ber.errors()),
                                     std::to_string(path.exact_frames),
                                     std::to_string(path.bursts.longest_burst),
                                     util::format_double(path.service.mean_us()),
                                     util::format_double(path.service.p50_us()),
                                     util::format_double(path.service.p99_us()),
                                     util::format_double(path.replay.throughput_per_us * 1000.0),
                                     util::format_double(path.replay.p50_latency_us),
                                     util::format_double(path.replay.p99_latency_us),
                                     util::format_double(path.replay.drop_rate, 5),
                                     std::to_string(peak_queue)};
        if (fec_on) {
            const fec_path_report& fr = *path.fec;
            row.push_back(util::format_double(fr.coded_fer(), 5));
            row.push_back(util::format_double(fr.info_ber.rate(), 5));
        }
        if (arq_on) {
            const arq_path_report& ar = *path.arq;
            row.push_back(util::format_double(ar.counters.residual_fer(), 5));
            row.push_back(util::format_double(ar.counters.retx_rate(), 4));
            row.push_back(util::format_double(ar.replay_stats.miss_rate(), 5));
            row.push_back(util::format_double(ar.replay_stats.goodput_per_us * 1000.0));
        }
        t.add_row(std::move(row));
    }
    return t;
}

}  // namespace hcq::link
