// The three link-simulator workloads: timed link::run_link_simulation calls
// (untraced run) or the traced driver beside its untraced twins (traced
// run), each followed by the correctness checks.
#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench_util.h"
#include "fec/codec.h"
#include "independent.h"
#include "link_traced.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "util/rng.h"
#include "wireless/channel.h"
#include "wireless/channel_spec.h"
#include "wireless/mimo.h"
#include "wireless/soft.h"

namespace perfbench {

namespace {

namespace domains = hcq::link::stream_domains;
using hcq::link::link_config;
using hcq::link::link_report;
using hcq::util::rng;

// Sampled checks draw their use indices from this stream of the seed.
constexpr std::uint64_t sample_stream = 0x62656e63685f534dULL;  // "bench_SM"

std::size_t uses_per_frame(const link_config& c) {
    if (!c.fec) return 1;
    const std::size_t bits_per_use = c.num_users * hcq::wireless::bits_per_symbol(c.mod);
    return (c.fec->coded_bits() + bits_per_use - 1) / bits_per_use;
}

hcq::wireless::mimo_config mimo_of(const link_config& c) {
    hcq::wireless::mimo_config m;
    m.mod = c.mod;
    m.num_users = c.num_users;
    m.num_antennas = c.num_users;
    m.channel = c.channel;
    const double snr =
        (c.channel_spec && c.channel_spec->snr_db) ? *c.channel_spec->snr_db : c.snr_db;
    m.noise_variance = hcq::wireless::noise_variance_for_snr(c.mod, c.num_users, snr);
    return m;
}

/// Distinct sampled indices in [0, n), drawn from the seed.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n, std::size_t count) {
    rng r = rng(seed).derive(sample_stream);
    std::vector<std::size_t> out;
    count = std::min(count, n);
    while (out.size() < count) {
        const std::size_t i = r.uniform_index(n);
        if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// Properties every report of the workload must have: per-path bit
/// counts, the ARQ accounting, and no path beating exact ML on total cost.
void check_report(const link_config& c, const link_report& report, run_result& res) {
    const std::size_t bits_per_use = c.num_users * hcq::wireless::bits_per_symbol(c.mod);
    const std::size_t upf = uses_per_frame(c);
    const std::size_t frames = c.num_uses / upf;
    const auto& sphere = report.path("sphere");
    for (const auto& p : report.paths) {
        res.check(p.ber.total_bits() == c.num_uses * bits_per_use,
                  p.spec + ": BER counter covers every transmitted bit");
        res.check(p.exact_frames <= c.num_uses, p.spec + ": exact uses <= uses");
        res.check(p.sum_ml_cost >= sphere.sum_ml_cost * (1.0 - 1e-12),
                  p.spec + ": total ML cost not below sphere's (exact ML)");
        std::uint64_t first_errors = c.num_uses - p.exact_frames;
        if (c.fec) {
            res.check(p.fec && p.fec->frames == frames, p.spec + ": every coded frame decoded");
            if (p.fec) first_errors = p.fec->frame_errors;
        }
        if (!c.arq) continue;
        if (!p.arq) {
            res.check(false, p.spec + ": ARQ report missing");
            continue;
        }
        const auto& k = p.arq->counters;
        const std::uint64_t retx = p.arq->retx_service.count();
        const std::uint64_t max_retx = c.arq->max_retx;
        res.check(k.frames == frames, p.spec + ": ARQ frames = offered frames");
        res.check(k.attempts == k.frames + retx, p.spec + ": attempts = frames + retransmissions");
        res.check(k.attempts <= (1 + max_retx) * k.frames,
                  p.spec + ": attempts <= (1 + max_retx) x frames");
        res.check(k.wrong_attempts >= first_errors,
                  p.spec + ": wrong attempts >= first-attempt errors");
        res.check(k.corrected_frames + k.residual_errors == first_errors,
                  p.spec + ": corrected + residual = first-attempt errors");
        res.check(retx >= first_errors && retx <= max_retx * first_errors,
                  p.spec + ": only wrong frames retransmit, at most max_retx times");
        res.check(k.residual_errors <= first_errors,
                  p.spec + ": residual FER <= first-attempt FER");
    }
}

/// The deterministic outputs of two reports are identical.
bool same_outputs(const link_report& a, const link_report& b) {
    if (a.paths.size() != b.paths.size()) return false;
    for (std::size_t p = 0; p < a.paths.size(); ++p) {
        const auto& x = a.paths[p];
        const auto& y = b.paths[p];
        if (x.ber.errors() != y.ber.errors() || x.exact_frames != y.exact_frames ||
            x.sum_ml_cost != y.sum_ml_cost) {
            return false;
        }
        if (x.arq && y.arq) {
            const auto& xa = x.arq->counters;
            const auto& ya = y.arq->counters;
            if (xa.attempts != ya.attempts || xa.residual_errors != ya.residual_errors) {
                return false;
            }
        }
        if (x.fec && y.fec && x.fec->frame_errors != y.fec->frame_errors) return false;
    }
    return true;
}

/// Re-runs every path on sampled uses and checks its outputs against the
/// independent computations: the exhaustive ML minimum, the benchmark's own
/// ML cost of the detected bits, the reduced QUBO's energy, and the sign of
/// exact-ML soft output.
void check_sampled_uses(const link_workload& wl, const link_config& c, run_result& res) {
    const auto paths = hcq::paths::registry::make_all(c.paths);
    const std::size_t num_paths = paths.size();
    const auto mimo = mimo_of(c);
    const rng synth_base = rng(c.seed).derive(domains::synthesis);
    const rng solve_base = rng(c.seed).derive(domains::solve);
    std::unique_ptr<const hcq::wireless::channel_process> process;
    if (c.channel_spec) {
        process = hcq::wireless::make_channel_process(*c.channel_spec, c.num_users, c.num_users,
                                                      rng(c.seed).derive(domains::fading));
    }
    const double est_err = c.channel_spec ? c.channel_spec->est_err : 0.0;
    const std::size_t bits_per_use = c.num_users * hcq::wireless::bits_per_symbol(c.mod);
    const std::size_t upf = uses_per_frame(c);
    std::optional<hcq::fec::codec> codec;
    if (c.fec) codec.emplace(*c.fec);
    hcq::paths::workspace ws;

    for (const std::size_t u : sample_indices(c.seed, c.num_uses, wl.sampled_uses)) {
        // Rebuild channel use u exactly as the link layer synthesises it.
        std::vector<std::uint8_t> use_bits;
        if (codec) {
            const std::size_t f = u / upf;
            rng info_rng = rng(c.seed).derive(domains::fec).derive(f);
            std::vector<std::uint8_t> info, coded;
            info_rng.bits_into(codec->info_bits(), info);
            codec->encode_frame(info, coded);
            use_bits.assign(bits_per_use, 0);
            const std::size_t lo = (u % upf) * bits_per_use;
            for (std::size_t b = 0; b < bits_per_use && lo + b < coded.size(); ++b) {
                use_bits[b] = coded[lo + b];
            }
        }
        rng synth_rng = synth_base.derive(u);
        hcq::wireless::mimo_instance inst;
        if (process) {
            hcq::wireless::synthesize_at_coded_into(synth_rng, mimo, *process,
                                                    static_cast<double>(u), est_err, use_bits,
                                                    inst);
        } else {
            hcq::wireless::synthesize_coded_into(synth_rng, mimo, use_bits, inst);
        }
        bool map_ok = inst.tx_symbols.size() == c.num_users;
        for (std::size_t j = 0; map_ok && j < c.num_users; ++j) {
            map_ok = inst.tx_symbols[j] ==
                     qam16_symbol(std::span<const std::uint8_t>(inst.tx_bits).subspan(4 * j, 4));
        }
        res.check(map_ok, "use " + std::to_string(u) + ": own 16-QAM map reproduces tx symbols");

        const double ml_min = exhaustive_min_cost(inst);
        bool needs_qubo = false;
        for (const auto& p : paths) needs_qubo = needs_qubo || p->needs_qubo();
        hcq::detect::ml_qubo mq;
        if (needs_qubo) hcq::detect::ml_to_qubo_into(inst, ws.detect.qubo, mq);
        for (std::size_t p = 0; p < num_paths; ++p) {
            const std::string tag = "use " + std::to_string(u) + " " + paths[p]->spec().to_string();
            rng solve_rng = solve_base.derive(u * num_paths + p);
            const hcq::paths::path_context ctx{inst, needs_qubo ? &mq : nullptr, solve_rng, &ws};
            hcq::paths::path_result r = paths[p]->run(ctx);
            const double own = own_ml_cost(inst, r.bits);
            res.check(close(own, r.ml_cost), tag + ": reported ML cost = own ||y - Hx||^2");
            res.check(own >= ml_min * (1.0 - 1e-12) - 1e-12,
                      tag + ": ML cost >= exhaustive minimum");
            if (paths[p]->spec().kind == "sphere") {
                res.check(close(own, ml_min), tag + ": sphere ML cost = exhaustive minimum");
                paths[p]->soft_output(ctx, r);
                bool signs = r.llrs.size() == r.bits.size();
                for (std::size_t b = 0; signs && b < r.bits.size(); ++b) {
                    signs = r.bits[b] == 0 ? r.llrs[b] >= 0.0 : r.llrs[b] <= 0.0;
                }
                res.check(signs, tag + ": sphere LLR signs agree with its hard bits");
            }
            if (paths[p]->needs_qubo()) {
                res.check(close(mq.model.energy(r.bits) + mq.model.offset(), own),
                          tag + ": QUBO energy + offset = own ||y - Hx||^2");
            }
        }
    }

    if (codec) {
        // A clean codeword decodes back to its information bits.
        const std::size_t frames = c.num_uses / upf;
        for (const std::size_t f : sample_indices(c.seed ^ 1, frames, wl.sampled_uses)) {
            rng info_rng = rng(c.seed).derive(domains::fec).derive(f);
            std::vector<std::uint8_t> info, coded, decoded;
            info_rng.bits_into(codec->info_bits(), info);
            codec->encode_frame(info, coded);
            std::vector<double> llrs(coded.size());
            for (std::size_t b = 0; b < coded.size(); ++b) {
                llrs[b] = coded[b] == 0 ? hcq::wireless::llr_cap : -hcq::wireless::llr_cap;
            }
            codec->decode_frame(llrs, decoded);
            res.check(decoded == info, "frame " + std::to_string(f) + ": +-cap LLRs of its own "
                                       "codeword decode to its information bits");
        }
    }
}

/// One set-up: path construction, channel-process creation, and a warm-up
/// call.  Returns its wall time in seconds.
double set_up(const link_workload& wl, const link_config& c) {
    const double t0 = now_us();
    const auto paths = hcq::paths::registry::make_all(c.paths);
    std::unique_ptr<const hcq::wireless::channel_process> process;
    if (c.channel_spec) {
        process = hcq::wireless::make_channel_process(*c.channel_spec, c.num_users, c.num_users,
                                                      rng(c.seed).derive(domains::fading));
    }
    link_config warm = c;
    warm.num_uses = wl.warmup_uses;
    (void)hcq::link::run_link_simulation(warm);
    return (now_us() - t0) / 1e6;
}

struct timed_call {
    link_report report;
    double wall_us = 0.0;
};

timed_call time_call(const link_config& c) {
    const double t0 = now_us();
    timed_call out{hcq::link::run_link_simulation(c), 0.0};
    out.wall_us = now_us() - t0;
    return out;
}

void run_untraced(const options& opts, const link_workload& wl, const link_config& c,
                  run_result& res) {
    std::vector<double> setups;
    for (int r = 0; r < setup_repeats(opts); ++r) setups.push_back(set_up(wl, c));

    std::vector<double> walls_us, uses_per_s, cpu_per_use;
    std::optional<link_report> first;
    std::uint64_t retx_per_call = 0;
    const double deadline = now_us() + opts.seconds * 1e6;
    do {
        const double cpu0 = cpu_us();
        timed_call call = time_call(c);
        const double cpu = cpu_us() - cpu0;
        walls_us.push_back(call.wall_us);
        uses_per_s.push_back(static_cast<double>(c.num_uses) / (call.wall_us / 1e6));
        cpu_per_use.push_back(cpu / static_cast<double>(c.num_uses));
        check_report(c, call.report, res);
        if (!first) {
            first = std::move(call.report);
            for (const auto& p : first->paths) {
                if (p.arq) retx_per_call += p.arq->counters.retransmissions();
            }
        } else {
            res.check(same_outputs(*first, call.report),
                      "repeated call reproduces the first call's detection outputs");
        }
    } while (now_us() < deadline);

    const std::uint64_t calls = walls_us.size();
    res.attempted = calls * c.num_uses;
    res.account("calls", calls);
    res.account("uses", calls * c.num_uses);
    res.account("frames", calls * (c.num_uses / uses_per_frame(c)));
    res.account("path_detections", calls * c.num_uses * c.paths.size());
    res.account("retransmissions", calls * retx_per_call);
    res.account("requests", calls);
    res.account("non_ok", 0);

    check_sampled_uses(wl, c, res);

    emit_metrics(end_to_end_metrics(),
                 {{"uses_per_s", median(uses_per_s)},
                  {"cpu_us_per_use", median(cpu_per_use)},
                  {"setup_s", median(setups)},
                  {"peak_rss_mib", peak_rss_mib()},
                  {"request_p50_us", quantile(walls_us, 0.5)},
                  {"request_p90_us", quantile(walls_us, 0.9)}},
                 res);
}

void run_traced(const options& opts, const link_workload& wl, const link_config& c,
                run_result& res) {
    (void)set_up(wl, c);
    // Untraced twins: the workload's own thread count and one thread.
    std::vector<double> wall_n, wall_1;
    std::optional<link_report> report;
    link_config single = c;
    single.num_threads = 1;
    for (int r = 0; r < 3; ++r) {
        timed_call call = time_call(c);
        wall_n.push_back(call.wall_us);
        check_report(c, call.report, res);
        if (!report) report = std::move(call.report);
        timed_call one = time_call(single);
        wall_1.push_back(one.wall_us);
        res.check(same_outputs(*report, one.report), "one-thread run reproduces the outputs");
    }

    // The traced driver, alternately with span recording off and on.
    bool keep_qubos = false;
    for (const auto& p : hcq::paths::registry::make_all(c.paths)) {
        keep_qubos = keep_qubos || p->as_solver() != nullptr;
    }
    std::vector<double> on_us, off_us;
    std::optional<tracer> tr;
    traced_outcome outcome;
    for (int r = 0; r < 2; ++r) {
        tracer off(false);
        const traced_outcome quiet = run_traced_link(c, off, false);
        off_us.push_back(quiet.wall_us);
        for (const auto& m : compare_with_report(quiet, *report)) res.check(false, m);
        tr.emplace(true);
        outcome = run_traced_link(c, *tr, keep_qubos);
        on_us.push_back(outcome.wall_us);
        for (const auto& m : compare_with_report(outcome, *report)) res.check(false, m);
    }
    tracer solver_tr(true);
    run_solver_forms(c, outcome.qubos, solver_tr);
    check_sampled_uses(wl, c, res);

    const tracer::self_times self = tr->summarize();
    const double busy_us = self.attributed_us();
    const double traced_wall = outcome.wall_us;
    const double uses = static_cast<double>(c.num_uses);
    const double threads = static_cast<double>(c.num_threads);
    const auto cnt = [&](const std::string& k) { return static_cast<double>(tr->counted(k)); };

    std::map<std::string, double> m;
    m["wireless.synth_calls"] = cnt("wireless.synth_calls");
    m["wireless.synth_us_per_use"] =
        ratio(self.key("wireless.synth") + self.key("wireless.synth_retx"),
              cnt("wireless.synth_calls"));
    m["detect.reductions"] = cnt("detect.reductions");
    m["detect.reduce_us_per_use"] = ratio(self.key("detect.reduce"), cnt("detect.reductions"));
    for (const auto& t : outcome.paths) {
        const std::string path = "paths." + t.kind;
        m[path + ".run_block_us_per_use"] =
            ratio(self.key(path + ".run_block"), cnt(path + ".run_block"));
        if (c.fec) {
            m[path + ".soft_output_us_per_use"] =
                ratio(self.key(path + ".soft_output"), cnt(path + ".soft_output"));
        }
        const std::string layer = solver_layer(t.kind);
        const auto solves =
            static_cast<double>(solver_tr.counted(layer + "." + t.kind + ".solves"));
        if (solves > 0) {
            m[layer + "." + t.kind + ".solve_us_per_use"] =
                ratio(solver_tr.inclusive_us(layer, t.kind + ".solve"), solves);
        }
    }
    m["paths.registry_make_us"] = ratio(self.key("paths.registry_make"), cnt("paths.made"));
    m["fec.encode_us_per_frame"] = ratio(self.key("fec.encode"), cnt("fec.encodes"));
    m["fec.decode_us_per_frame"] = ratio(self.key("fec.decode"), cnt("fec.decodes"));
    m["fec.decodes"] = cnt("fec.decodes");
    double corrected = 0.0;
    for (const auto& t : outcome.paths) {
        if (t.arq) corrected += static_cast<double>(t.arq->corrected_frames);
    }
    m["arq.retx_attempts"] = cnt("arq.retx_attempts");
    m["arq.frames_corrected"] = corrected;
    m["arq.retx_fix_ratio"] = ratio(corrected, cnt("arq.retx_attempts"));
    m["arq.retx_us_per_attempt"] = ratio(tr->inclusive_us("arq", "retx"), cnt("arq.retx_attempts"));
    m["arq.closed_replay_ms"] = self.key("arq.closed_replay") / 1e3;
    m["pipeline.replay_us_per_job"] = ratio(self.key("pipeline.replay"), cnt("pipeline.jobs"));
    m["metrics.fold_us_per_use"] = ratio(self.layer("metrics"), uses);
    m["util.rng_us_per_use"] = ratio(self.layer("util"), uses);
    m["link.single_thread_wall_ms"] = median(wall_1) / 1e3;
    m["link.overhead_us_per_use"] = (median(wall_1) - busy_us) / uses;
    m["link.layer_busy_ms"] = busy_us / 1e3;
    m["link.wall_ms"] = median(wall_n) / 1e3;
    m["link.threads"] = threads;
    m["link.parallel_efficiency"] = busy_us / (median(wall_n) * threads);
    m["trace.attributed_share"] = busy_us / traced_wall;
    m["trace.overhead_pct"] = (median(on_us) - median(off_us)) / median(off_us) * 100.0;
    m["trace.wall_ms"] = median(on_us) / 1e3;
    m["trace.untraced_wall_ms"] = median(off_us) / 1e3;
    m["trace.spans"] = static_cast<double>(tr->spans().size());
    res.check(busy_us >= 0.9 * traced_wall,
              "layer self times cover at least 90% of the traced run's wall time");

    if (!opts.out_dir.empty()) {
        std::filesystem::create_directories(opts.out_dir);
        tr->write_json(opts.out_dir + "/" + wl.name + ".spans.json", wl.name);
        solver_tr.write_json(opts.out_dir + "/" + wl.name + ".solver-forms.spans.json", wl.name);
    }

    // Accounts for the recorded traced run whose spans are reported.
    res.attempted = c.num_uses;
    res.account("uses", c.num_uses);
    res.account("frames", c.num_uses / uses_per_frame(c));
    res.account("retransmissions", tr->counted("arq.retx_attempts"));
    res.account("requests", 1);
    res.account("non_ok", 0);
    emit_metrics(per_layer_metrics(), m, res);
}

}  // namespace

run_result run_link_workload(const options& opts, const link_workload& wl) {
    run_result res;
    link_config c = wl.config;
    c.seed = opts.seed;
    c.num_threads = load_threads();
    if (opts.trace) {
        run_traced(opts, wl, c, res);
    } else {
        run_untraced(opts, wl, c, res);
    }
    return res;
}

}  // namespace perfbench
