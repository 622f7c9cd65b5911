#include "link_traced.h"

#include <algorithm>
#include <memory>
#include <span>

#include "bench_util.h"
#include "fec/codec.h"
#include "metrics/digest.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "pipeline/pipeline.h"
#include "util/rng.h"
#include "wireless/channel.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"
#include "wireless/soft.h"

namespace perfbench {

namespace {

namespace domains = hcq::link::stream_domains;
using hcq::util::rng;

// Detected uses batched per run_block call (the link layer's run_chunk).
constexpr std::size_t chunk_uses = 64;
// An ARQ retransmission attempt r of use u sees the fading process at
// t = u + r (link_config::channel_spec).
constexpr double retx_lag_uses = 1.0;
// Replay sample kept per stage (link::stage_trace::replay_sample_capacity).
constexpr std::size_t replay_capacity = hcq::link::stage_trace::replay_sample_capacity;

/// One stage's fold state: the digest the link report keeps plus the
/// strided replay sample.
struct stage_fold {
    std::string name;
    std::size_t servers = 1;
    hcq::metrics::latency_digest digest;
    std::vector<double> sample;

    void add(std::size_t use, std::size_t stride, double us) {
        digest.add(us);
        if (use % stride == 0 && sample.size() < replay_capacity) sample.push_back(us);
    }
};

/// One (use or frame, path) retransmission chain, folded in order later.
struct chain_result {
    std::size_t attempts = 1;
    std::size_t wrong = 0;
    bool first_ok = true;
    bool final_ok = true;
};

/// A retransmitted channel use, shared across the paths of one use/attempt.
struct retx_use {
    hcq::wireless::mimo_instance instance;
    hcq::detect::ml_qubo mq;
    bool reduced = false;
};

void pad_use_bits(const std::vector<std::uint8_t>& coded, std::size_t j, std::size_t bits_per_use,
                  std::vector<std::uint8_t>& out) {
    out.assign(bits_per_use, 0);
    const std::size_t lo = j * bits_per_use;
    const std::size_t n = std::min(bits_per_use, coded.size() - lo);
    std::copy_n(coded.begin() + static_cast<std::ptrdiff_t>(lo), n, out.begin());
}

void gather_use_llrs(const std::vector<double>& llrs, std::size_t j, std::size_t bits_per_use,
                     std::vector<double>& frame) {
    const std::size_t lo = j * bits_per_use;
    const std::size_t n = std::min(bits_per_use, frame.size() - lo);
    std::copy_n(llrs.begin(), n, frame.begin() + static_cast<std::ptrdiff_t>(lo));
}

}  // namespace

const char* solver_layer(const std::string& kind) {
    return (kind == "gsra" || kind == "kxra") ? "core" : "classical";
}

traced_outcome run_traced_link(const hcq::link::link_config& config, tracer& tr,
                               bool keep_qubos) {
    const double start_us = now_us();
    traced_outcome outcome;
    const auto root = tr.open("bench", "link");

    std::vector<std::shared_ptr<const hcq::paths::detection_path>> paths;
    {
        const auto s = tr.open("paths", "registry_make");
        paths = hcq::paths::registry::make_all(config.paths);
    }
    tr.count("paths.made", paths.size());
    const std::size_t num_paths = paths.size();
    const std::size_t num_uses = config.num_uses;
    bool needs_qubo = false;
    for (const auto& p : paths) needs_qubo = needs_qubo || p->needs_qubo();

    const double snr_db = (config.channel_spec && config.channel_spec->snr_db)
                              ? *config.channel_spec->snr_db
                              : config.snr_db;
    const double est_err = config.channel_spec ? config.channel_spec->est_err : 0.0;
    std::unique_ptr<const hcq::wireless::channel_process> process;
    if (config.channel_spec) {
        const auto s = tr.open("wireless", "channel_process");
        process = hcq::wireless::make_channel_process(
            *config.channel_spec, config.num_users, config.num_users,
            rng(config.seed).derive(domains::fading));
    }
    hcq::wireless::mimo_config mimo;
    mimo.mod = config.mod;
    mimo.num_users = config.num_users;
    mimo.num_antennas = config.num_users;
    mimo.channel = config.channel;
    mimo.noise_variance =
        config.noiseless ? 0.0
                         : hcq::wireless::noise_variance_for_snr(config.mod, config.num_users,
                                                                 snr_db);

    const bool coded = config.fec.has_value();
    const std::size_t bits_per_use = config.num_users * hcq::wireless::bits_per_symbol(config.mod);
    std::optional<hcq::fec::codec> codec;
    if (coded) {
        const auto s = tr.open("fec", "codec");
        codec.emplace(*config.fec);
    }
    const std::size_t coded_bits = coded ? codec->coded_bits() : 0;
    const std::size_t uses_per_frame = coded ? (coded_bits + bits_per_use - 1) / bits_per_use : 1;
    const std::size_t chunk =
        coded ? std::max(uses_per_frame, chunk_uses / uses_per_frame * uses_per_frame) : chunk_uses;
    const std::size_t max_retx = config.arq ? config.arq->max_retx : 0;

    rng synth_base(0), solve_base(0), arq_synth_base(0), arq_solve_base(0), fec_base(0);
    {
        const auto s = tr.open("util", "derive");
        synth_base = rng(config.seed).derive(domains::synthesis);
        solve_base = rng(config.seed).derive(domains::solve);
        arq_synth_base = rng(config.seed).derive(domains::arq_synthesis);
        arq_solve_base = rng(config.seed).derive(domains::arq_solve);
        fec_base = rng(config.seed).derive(domains::fec);
    }

    // Fold state, the constant-size aggregates of link::link_report.
    const std::size_t stride = (num_uses + replay_capacity - 1) / replay_capacity;
    outcome.paths.resize(num_paths);
    std::vector<std::vector<stage_fold>> stages(num_paths);
    std::vector<stage_fold> service(num_paths);
    stage_fold synth_fold, reduce_fold;
    std::vector<std::size_t> first_solve(num_paths);
    for (std::size_t p = 0; p < num_paths; ++p) {
        traced_path& tp = outcome.paths[p];
        tp.kind = paths[p]->spec().kind;
        tp.spec = paths[p]->spec().to_string();
        if (config.arq) tp.arq.emplace();
        stages[p].push_back({"synth", 1, {}, {}});
        if (paths[p]->needs_qubo()) stages[p].push_back({"qubo", 1, {}, {}});
        first_solve[p] = stages[p].size();
        const auto names = paths[p]->stage_names();
        const auto servers = paths[p]->stage_servers();
        for (std::size_t s = 0; s < names.size(); ++s) {
            stages[p].push_back({names[s], servers[s], {}, {}});
        }
    }

    hcq::paths::workspace ws;
    std::vector<rng> synth_rngs(chunk, rng(0));
    std::vector<rng> solve_rngs(chunk, rng(0));
    std::vector<hcq::wireless::mimo_instance> instances(chunk);
    std::vector<hcq::detect::ml_qubo> mqs(needs_qubo ? chunk : 0);
    std::vector<std::vector<std::uint8_t>> tx_bits(chunk);
    std::vector<double> synth_us(chunk), reduce_us(chunk);
    std::vector<std::vector<hcq::paths::path_result>> cells(
        num_paths, std::vector<hcq::paths::path_result>(chunk));
    const std::size_t chunk_frames = coded ? chunk / uses_per_frame : 0;
    std::vector<std::vector<std::uint8_t>> frame_info(chunk_frames), frame_coded(chunk_frames);
    std::vector<std::vector<std::vector<std::uint8_t>>> decoded0(
        num_paths, std::vector<std::vector<std::uint8_t>>(chunk_frames));
    std::vector<std::uint8_t> use_bits;
    std::vector<double> frame_llrs, attempt_llrs, combined_llrs;
    std::vector<std::uint8_t> decoded;
    std::vector<std::vector<chain_result>> chains(num_paths,
                                                  std::vector<chain_result>(chunk));

    for (std::size_t base = 0; base < num_uses; base += chunk) {
        const std::size_t n = std::min(chunk, num_uses - base);
        const std::size_t frames = coded ? n / uses_per_frame : 0;
        {
            const auto s = tr.open("util", "derive");
            for (std::size_t i = 0; i < n; ++i) synth_rngs[i] = synth_base.derive(base + i);
        }
        for (std::size_t fi = 0; fi < frames; ++fi) {
            {
                const auto s = tr.open("util", "info_bits");
                rng info_rng = fec_base.derive(base / uses_per_frame + fi);
                info_rng.bits_into(codec->info_bits(), frame_info[fi]);
            }
            const auto s = tr.open("fec", "encode");
            codec->encode_frame(frame_info[fi], frame_coded[fi]);
        }
        tr.count("fec.encodes", frames);
        {
            const auto s = tr.open("wireless", "synth");
            for (std::size_t i = 0; i < n; ++i) {
                const double t0 = now_us();
                if (coded) {
                    pad_use_bits(frame_coded[i / uses_per_frame], i % uses_per_frame, bits_per_use,
                                 use_bits);
                } else {
                    use_bits.clear();
                }
                if (process) {
                    hcq::wireless::synthesize_at_coded_into(synth_rngs[i], mimo, *process,
                                                            static_cast<double>(base + i), est_err,
                                                            use_bits, instances[i]);
                } else {
                    hcq::wireless::synthesize_coded_into(synth_rngs[i], mimo, use_bits,
                                                         instances[i]);
                }
                synth_us[i] = now_us() - t0;
                tx_bits[i] = instances[i].tx_bits;
            }
        }
        tr.count("wireless.synth_calls", n);
        if (needs_qubo) {
            {
                const auto s = tr.open("detect", "reduce");
                for (std::size_t i = 0; i < n; ++i) {
                    const double t0 = now_us();
                    hcq::detect::ml_to_qubo_into(instances[i], ws.detect.qubo, mqs[i]);
                    reduce_us[i] = now_us() - t0;
                }
            }
            tr.count("detect.reductions", n);
            if (keep_qubos) {
                outcome.qubos.insert(outcome.qubos.end(), mqs.begin(),
                                     mqs.begin() + static_cast<std::ptrdiff_t>(n));
            }
        }

        for (std::size_t p = 0; p < num_paths; ++p) {
            const std::string& kind = outcome.paths[p].kind;
            {
                const auto s = tr.open("util", "derive");
                for (std::size_t j = 0; j < n; ++j) {
                    solve_rngs[j] = solve_base.derive((base + j) * num_paths + p);
                }
            }
            std::vector<hcq::paths::path_context> ctxs;
            ctxs.reserve(n);
            for (std::size_t j = 0; j < n; ++j) {
                ctxs.push_back({instances[j], needs_qubo ? &mqs[j] : nullptr, solve_rngs[j], &ws});
            }
            const auto out = std::span<hcq::paths::path_result>(cells[p]).first(n);
            {
                const auto s = tr.open("paths", kind + ".run_block");
                paths[p]->run_block(ctxs, out);
            }
            tr.count("paths." + kind + ".run_block", n);
            if (coded) {
                {
                    const auto s = tr.open("paths", kind + ".soft_output");
                    for (std::size_t j = 0; j < n; ++j) paths[p]->soft_output(ctxs[j], out[j]);
                }
                tr.count("paths." + kind + ".soft_output", n);
            }
        }

        if (config.arq && !coded) {
            // The uncoded chain: a wrong use is re-sent on a fresh channel use
            // per attempt, shared across the paths that retransmit it.
            std::vector<std::optional<retx_use>> shared(max_retx);
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t u = base + i;
                for (auto& slot : shared) slot.reset();
                for (std::size_t p = 0; p < num_paths; ++p) {
                    const std::string& kind = outcome.paths[p].kind;
                    const bool wants_qubo = paths[p]->needs_qubo();
                    bool ok = cells[p][i].bits == tx_bits[i];
                    const bool first_ok = ok;
                    std::size_t wrong = ok ? 0 : 1;
                    std::size_t attempt = 0;
                    while (hcq::arq::needs_retx(*config.arq, ok, attempt)) {
                        ++attempt;
                        const auto chain = tr.open("arq", "retx");
                        tr.count("arq.retx_attempts");
                        auto& slot = shared[attempt - 1];
                        if (!slot) {
                            slot.emplace();
                            rng retx_synth(0);
                            {
                                const auto s = tr.open("util", "derive");
                                retx_synth = arq_synth_base.derive(u).derive(attempt);
                            }
                            const auto s = tr.open("wireless", "synth_retx");
                            slot->instance =
                                process ? hcq::wireless::synthesize_at(
                                              retx_synth, mimo, *process,
                                              static_cast<double>(u) +
                                                  static_cast<double>(attempt) * retx_lag_uses,
                                              est_err)
                                        : hcq::wireless::synthesize(retx_synth, mimo);
                            tr.count("wireless.synth_calls");
                        }
                        if (wants_qubo && !slot->reduced) {
                            const auto s = tr.open("detect", "reduce");
                            hcq::detect::ml_to_qubo_into(slot->instance, ws.detect.qubo, slot->mq);
                            slot->reduced = true;
                            tr.count("detect.reductions");
                        }
                        rng retx_solve(0);
                        {
                            const auto s = tr.open("util", "derive");
                            retx_solve = arq_solve_base.derive(u * num_paths + p).derive(attempt);
                        }
                        const hcq::paths::path_context ctx{
                            slot->instance, wants_qubo ? &slot->mq : nullptr, retx_solve, &ws};
                        hcq::paths::path_result result;
                        {
                            const auto s = tr.open("paths", kind + ".run");
                            result = paths[p]->run(ctx);
                        }
                        ok = result.bits == slot->instance.tx_bits;
                        if (!ok) ++wrong;
                    }
                    chains[p][i] = {attempt + 1, wrong, first_ok, ok};
                }
            }
        }

        if (coded) {
            // Per coded frame: the attempt-0 decode and, with ARQ, the
            // chase-combining chain re-sending the frame's coded bits.
            for (std::size_t fi = 0; fi < frames; ++fi) {
                const std::size_t i0 = fi * uses_per_frame;
                std::vector<std::optional<retx_use>> shared(uses_per_frame * max_retx);
                for (std::size_t p = 0; p < num_paths; ++p) {
                    const std::string& kind = outcome.paths[p].kind;
                    const bool wants_qubo = paths[p]->needs_qubo();
                    {
                        const auto s = tr.open("fec", "decode");
                        frame_llrs.resize(coded_bits);
                        for (std::size_t j = 0; j < uses_per_frame; ++j) {
                            gather_use_llrs(cells[p][i0 + j].llrs, j, bits_per_use, frame_llrs);
                        }
                        codec->decode_frame(frame_llrs, decoded0[p][fi]);
                    }
                    tr.count("fec.decodes");
                    bool ok = decoded0[p][fi] == frame_info[fi];
                    const bool first_ok = ok;
                    std::size_t wrong = ok ? 0 : 1;
                    std::size_t attempt = 0;
                    if (!config.arq) continue;
                    const bool chase = config.arq->combining == hcq::arq::combining_mode::chase;
                    if (chase) combined_llrs = frame_llrs;
                    while (hcq::arq::needs_retx(*config.arq, ok, attempt)) {
                        ++attempt;
                        const auto chain = tr.open("arq", "retx");
                        tr.count("arq.retx_attempts");
                        attempt_llrs.resize(coded_bits);
                        for (std::size_t j = 0; j < uses_per_frame; ++j) {
                            const std::size_t u = base + i0 + j;
                            auto& slot = shared[j * max_retx + (attempt - 1)];
                            if (!slot) {
                                slot.emplace();
                                rng retx_synth(0);
                                {
                                    const auto s = tr.open("util", "derive");
                                    retx_synth = arq_synth_base.derive(u).derive(attempt);
                                }
                                const auto s = tr.open("wireless", "synth_retx");
                                pad_use_bits(frame_coded[fi], j, bits_per_use, use_bits);
                                const double t = static_cast<double>(u) +
                                                 static_cast<double>(attempt) * retx_lag_uses;
                                if (process) {
                                    hcq::wireless::synthesize_at_coded_into(
                                        retx_synth, mimo, *process, t, est_err, use_bits,
                                        slot->instance);
                                } else {
                                    hcq::wireless::synthesize_coded_into(retx_synth, mimo,
                                                                         use_bits, slot->instance);
                                }
                                tr.count("wireless.synth_calls");
                            }
                            if (wants_qubo && !slot->reduced) {
                                const auto s = tr.open("detect", "reduce");
                                hcq::detect::ml_to_qubo_into(slot->instance, ws.detect.qubo,
                                                             slot->mq);
                                slot->reduced = true;
                                tr.count("detect.reductions");
                            }
                            rng retx_solve(0);
                            {
                                const auto s = tr.open("util", "derive");
                                retx_solve =
                                    arq_solve_base.derive(u * num_paths + p).derive(attempt);
                            }
                            const hcq::paths::path_context ctx{
                                slot->instance, wants_qubo ? &slot->mq : nullptr, retx_solve, &ws};
                            hcq::paths::path_result result;
                            {
                                const auto s = tr.open("paths", kind + ".run");
                                result = paths[p]->run(ctx);
                            }
                            {
                                const auto s = tr.open("paths", kind + ".soft_output_retx");
                                paths[p]->soft_output(ctx, result);
                            }
                            gather_use_llrs(result.llrs, j, bits_per_use, attempt_llrs);
                        }
                        if (chase) {
                            {
                                const auto s = tr.open("wireless", "accumulate_llrs");
                                hcq::wireless::accumulate_llrs(attempt_llrs, combined_llrs);
                            }
                            const auto s = tr.open("fec", "decode");
                            codec->decode_frame(combined_llrs, decoded);
                        } else {
                            const auto s = tr.open("fec", "decode");
                            codec->decode_frame(attempt_llrs, decoded);
                        }
                        tr.count("fec.decodes");
                        ok = decoded == frame_info[fi];
                        if (!ok) ++wrong;
                    }
                    chains[p][fi] = {attempt + 1, wrong, first_ok, ok};
                }
            }
        }

        {
            // The serial fold in use order: BER / exact / ML-cost / burst
            // counters and the per-stage digests and replay samples.
            const auto s = tr.open("metrics", "fold");
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t u = base + i;
                synth_fold.add(u, stride, synth_us[i]);
                reduce_fold.add(u, stride, needs_qubo ? reduce_us[i] : 0.0);
                for (std::size_t p = 0; p < num_paths; ++p) {
                    traced_path& tp = outcome.paths[p];
                    const auto& cell = cells[p][i];
                    tp.ber.add_frame(tx_bits[i], cell.bits);
                    if (cell.bits == tx_bits[i]) ++tp.exact_frames;
                    tp.sum_ml_cost += cell.ml_cost;
                    stages[p][0].add(u, stride, synth_us[i]);
                    double service_us = 0.0;
                    if (paths[p]->needs_qubo()) {
                        stages[p][1].add(u, stride, reduce_us[i]);
                        service_us += reduce_us[i];
                    }
                    for (std::size_t k = 0; k < cell.stages.size(); ++k) {
                        stages[p][first_solve[p] + k].add(u, stride, cell.stages[k].service_us);
                        service_us += cell.stages[k].service_us;
                    }
                    service[p].add(u, stride, service_us);
                    if (config.arq && !coded) {
                        const chain_result& c = chains[p][i];
                        tp.arq->add_frame(c.attempts, c.wrong, c.first_ok, c.final_ok);
                    }
                }
            }
            for (std::size_t fi = 0; fi < frames; ++fi) {
                for (std::size_t p = 0; p < num_paths; ++p) {
                    traced_path& tp = outcome.paths[p];
                    ++tp.fec_frames;
                    if (decoded0[p][fi] != frame_info[fi]) ++tp.fec_frame_errors;
                    tp.info_ber.add_frame(frame_info[fi], decoded0[p][fi]);
                    if (config.arq) {
                        const chain_result& c = chains[p][fi];
                        tp.arq->add_frame(c.attempts, c.wrong, c.first_ok, c.final_ok);
                    }
                }
            }
        }
    }

    // The measured-trace replays: open loop per path, then the ARQ closed
    // loop on the same stages and pacing.
    for (std::size_t p = 0; p < num_paths; ++p) {
        std::vector<hcq::pipeline::stage> replay_stages;
        double interarrival_us = 0.0;
        hcq::pipeline::simulation_result replay;
        const hcq::pipeline::sim_options options{.buffer_capacity = config.buffer_capacity,
                                                 .policy = config.policy,
                                                 .record_latencies = false};
        {
            const auto s = tr.open("pipeline", "replay");
            double bottleneck_us = 0.0;
            for (const auto& st : stages[p]) {
                replay_stages.push_back(
                    hcq::pipeline::stage::from_trace(st.name, st.sample).with_servers(st.servers));
                double mean = 0.0;
                for (const double v : st.sample) mean += v;
                if (!st.sample.empty()) mean /= static_cast<double>(st.sample.size());
                bottleneck_us = std::max(bottleneck_us, mean / static_cast<double>(st.servers));
            }
            interarrival_us = std::max(bottleneck_us / config.offered_load, 1e-3);
            rng arrivals(config.seed);
            replay = hcq::pipeline::simulate(replay_stages, num_uses,
                                             {.interarrival_us = interarrival_us}, arrivals,
                                             options);
        }
        tr.count("pipeline.jobs", num_uses);
        if (config.arq) {
            const auto s = tr.open("arq", "closed_replay");
            const double deadline_us =
                config.arq->deadline_auto ? replay.p99_latency_us : config.arq->deadline_us;
            rng replay_rng(config.seed);
            const auto closed = hcq::arq::closed_loop_replay(
                replay_stages, num_uses, outcome.paths[p].arq->attempt_error_rate(), deadline_us,
                config.arq->max_retx, {.interarrival_us = interarrival_us}, replay_rng, options);
            tr.count("arq.closed_replay_frames", closed.stats.frames);
        }
    }
    outcome.wall_us = now_us() - start_us;
    return outcome;
}

void run_solver_forms(const hcq::link::link_config& config,
                      const std::vector<hcq::detect::ml_qubo>& qubos, tracer& tr) {
    const auto paths = hcq::paths::registry::make_all(config.paths);
    const std::size_t num_paths = paths.size();
    const rng solve_base = rng(config.seed).derive(domains::solve);
    hcq::solvers::solve_scratch scratch;
    std::vector<std::uint8_t> best;
    for (std::size_t p = 0; p < num_paths; ++p) {
        if (!paths[p]->needs_qubo()) continue;
        const std::string kind = paths[p]->spec().kind;
        const auto solver = hcq::paths::registry::make_solver(paths[p]->spec().to_string());
        const auto s = tr.open(solver_layer(kind), kind + ".solve");
        for (std::size_t u = 0; u < qubos.size(); ++u) {
            rng solve_rng = solve_base.derive(u * num_paths + p);
            (void)solver->solve_best_into(qubos[u].model, solve_rng, scratch, best);
        }
        tr.count(std::string(solver_layer(kind)) + "." + kind + ".solves", qubos.size());
    }
}

std::vector<std::string> compare_with_report(const traced_outcome& traced,
                                             const hcq::link::link_report& report) {
    std::vector<std::string> bad;
    if (traced.paths.size() != report.paths.size()) {
        bad.push_back("traced driver ran " + std::to_string(traced.paths.size()) +
                      " paths, link report has " + std::to_string(report.paths.size()));
        return bad;
    }
    for (std::size_t p = 0; p < traced.paths.size(); ++p) {
        const traced_path& t = traced.paths[p];
        const hcq::link::path_report& r = report.paths[p];
        const auto expect = [&](bool same, const std::string& what) {
            if (!same) {
                bad.push_back("traced " + t.spec + ": " + what + " differs from link_report");
            }
        };
        expect(t.spec == r.spec, "spec");
        expect(t.ber.errors() == r.ber.errors() && t.ber.total_bits() == r.ber.total_bits(),
               "BER counter");
        expect(t.exact_frames == r.exact_frames, "exact uses");
        expect(t.sum_ml_cost == r.sum_ml_cost, "sum of ML costs");
        expect(t.arq.has_value() == r.arq.has_value(), "ARQ presence");
        if (t.arq && r.arq) {
            const auto& a = *t.arq;
            const auto& b = r.arq->counters;
            expect(a.frames == b.frames && a.attempts == b.attempts &&
                       a.wrong_attempts == b.wrong_attempts &&
                       a.corrected_frames == b.corrected_frames &&
                       a.residual_errors == b.residual_errors,
                   "ARQ counters");
        }
        expect(t.fec_frames == 0 || r.fec.has_value(), "FEC presence");
        if (r.fec) {
            expect(t.fec_frames == r.fec->frames && t.fec_frame_errors == r.fec->frame_errors,
                   "coded FER");
            expect(t.info_ber.errors() == r.fec->info_ber.errors() &&
                       t.info_ber.total_bits() == r.fec->info_ber.total_bits(),
                   "coded BER");
        }
    }
    return bad;
}

}  // namespace perfbench
