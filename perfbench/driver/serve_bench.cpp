// serve-mixed: a closed loop of 32-use requests over loopback against a
// serve::tcp_server in the same process.  Every round runs two concurrent
// serve::run_loadgen calls — hard-decision `zf` and soft `sphere`
// (want_soft) — with the same number of requests on the same number of
// connections, so half of the requests are each kind.
#include "workloads.h"

#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <span>
#include <thread>

#include "bench_util.h"
#include "link/link_sim.h"
#include "metrics/ber.h"
#include "metrics/digest.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "trace.h"
#include "util/rng.h"
#include "wireless/channel.h"
#include "wireless/mimo.h"

namespace perfbench {

namespace {

namespace serve = hcq::serve;
namespace domains = hcq::link::stream_domains;
using hcq::util::rng;

constexpr std::uint32_t batch_uses = 32;
constexpr std::size_t warmup_round = 1u << 16;  // tenant range of the set-up warm-ups

struct mix {
    serve::request hard;
    serve::request soft;
    std::size_t connections_per_kind = 1;
    std::size_t requests_per_connection = 1;  ///< per round
};

mix make_mix(const options& opts) {
    serve::request r;
    r.seed = opts.seed;
    r.num_uses = batch_uses;
    r.num_users = 4;
    r.snr_db = 16.0;
    r.mod = "qam16";
    mix m;
    m.hard = r;
    m.hard.spec = "zf";
    m.soft = r;
    m.soft.spec = "sphere";
    m.soft.want_soft = true;
    // Four requests in flight on two workers keep both busy, so a round
    // measures the workers rather than the wake-up latency of idle ones: with
    // one connection per kind, throughput moved 49k-94k uses/s between runs
    // on a host that steals vCPU time.
    m.connections_per_kind = load_threads();
    m.requests_per_connection = opts.smoke ? 4 : 32;
    return m;
}

std::uint64_t tenant_base(std::size_t round, bool soft) { return 1 + round * 16 + (soft ? 8 : 0); }

/// The request connection `c` of round `round` sends as its `seq`-th.
serve::request stamped(const mix& m, std::size_t round, bool soft, std::size_t c,
                       std::uint64_t seq) {
    serve::request req = soft ? m.soft : m.hard;
    req.tenant_id = tenant_base(round, soft) + c;
    req.request_seq = seq;
    return req;
}

struct round_result {
    serve::loadgen_report hard;
    serve::loadgen_report soft;
    double wall_us = 0.0;
    double cpu_us = 0.0;
};

round_result run_round(std::uint16_t port, const mix& m, std::size_t round, std::size_t per_conn) {
    const auto config = [&](bool soft) {
        serve::loadgen_config cfg;
        cfg.port = port;
        cfg.mode = serve::loadgen_mode::closed_loop;
        cfg.num_connections = m.connections_per_kind;
        cfg.total_requests = m.connections_per_kind * per_conn;
        cfg.tenant_base = tenant_base(round, soft);
        cfg.request_template = soft ? m.soft : m.hard;
        return cfg;
    };
    const serve::loadgen_config hard_cfg = config(false);
    const serve::loadgen_config soft_cfg = config(true);
    round_result out;
    const double cpu0 = cpu_us();
    const double t0 = now_us();
    std::exception_ptr soft_error;
    std::thread soft_thread([&] {
        try {
            out.soft = serve::run_loadgen(soft_cfg);
        } catch (...) {
            soft_error = std::current_exception();
        }
    });
    try {
        out.hard = serve::run_loadgen(hard_cfg);
    } catch (...) {
        soft_thread.join();
        throw;
    }
    soft_thread.join();
    if (soft_error) std::rethrow_exception(soft_error);
    out.wall_us = now_us() - t0;
    out.cpu_us = cpu_us() - cpu0;
    return out;
}

serve::server_config server_config_of() {
    serve::server_config sc;
    sc.port = 0;
    sc.num_workers = load_threads();
    sc.admission_capacity = 256;
    sc.policy = hcq::pipeline::backpressure::block;
    return sc;
}

/// One set-up: bind the server, start its workers, connect and warm every
/// connection with one request of each kind.
std::unique_ptr<serve::tcp_server> set_up(const mix& m, double& seconds) {
    const double t0 = now_us();
    auto server = std::make_unique<serve::tcp_server>(server_config_of());
    (void)run_round(server->port(), m, warmup_round, 1);
    seconds = (now_us() - t0) / 1e6;
    return server;
}

/// Sampled requests of round 0, served again over the live server and
/// compared with the in-process run_batch of the same request, whose
/// aggregates must match link::run_link_simulation at request_seed.
void check_sampled_requests(std::uint16_t port, const mix& m, run_result& res) {
    serve::client cl(port);
    const std::size_t last = m.connections_per_kind - 1;
    const std::size_t n = m.requests_per_connection;
    const std::pair<std::size_t, std::uint64_t> picks[] = {{0, 0}, {last, n / 2}, {0, n - 1}};
    for (const bool soft : {false, true}) {
        for (const auto& [c, seq] : picks) {
            const serve::request req = stamped(m, 0, soft, c, seq);
            const std::string tag = req.spec + " tenant " + std::to_string(req.tenant_id) +
                                    " seq " + std::to_string(req.request_seq);
            const serve::response resp = cl.call(req);
            res.check(resp.state == serve::status::ok, tag + ": served ok");
            if (resp.state != serve::status::ok) continue;
            const serve::batch_result batch = serve::run_batch(req);
            const std::size_t bpu = batch.bits_per_use;
            bool bits_same = resp.num_uses == batch.bits.size() && resp.bits_per_use == bpu;
            bool signs = true;
            for (std::size_t u = 0; bits_same && u < batch.bits.size(); ++u) {
                const auto served = serve::unpack_bits(resp.bits, u * bpu, bpu);
                bits_same = served == batch.bits[u];
                for (std::size_t b = 0; soft && b < bpu && b < served.size(); ++b) {
                    const double llr = resp.llrs.at(u * bpu + b);
                    signs = signs && (served[b] == 0 ? llr >= 0.0 : llr <= 0.0);
                }
            }
            res.check(bits_same, tag + ": served bits = in-process run_batch bits");
            res.check(resp.ml_cost == batch.ml_cost,
                      tag + ": served ML costs = run_batch ML costs");
            res.check(resp.llrs == batch.llrs, tag + ": served LLRs = run_batch LLRs");
            if (soft) {
                res.check(resp.llrs.size() == batch_uses * bpu && signs,
                          tag + ": sphere LLR signs agree with the served hard bits");
            }

            hcq::link::link_config lc;
            lc.num_uses = req.num_uses;
            lc.num_users = req.num_users;
            lc.snr_db = req.snr_db;
            lc.paths = hcq::paths::parse_spec_list(req.spec);
            lc.seed = serve::request_seed(req.tenant_id, req.request_seq, req.seed);
            lc.num_threads = 1;
            const auto report = hcq::link::run_link_simulation(lc);
            const auto& p = report.paths.at(0);
            res.check(p.ber.errors() == batch.bit_errors &&
                          p.ber.total_bits() == batch.total_bits &&
                          p.exact_frames == batch.exact_frames &&
                          p.sum_ml_cost == batch.sum_ml_cost,
                      tag + ": run_batch aggregates = run_link_simulation at request_seed");
        }
    }
}

/// run_batch's per-use work driven from the benchmark with spans: the
/// registry lookup, a cold workspace, synthesis, the path's run_block and
/// soft_output, and the BER fold.
serve::batch_result traced_batch(const serve::request& req, tracer& tr) {
    std::shared_ptr<const hcq::paths::detection_path> path;
    {
        const auto s = tr.open("paths", "registry_make");
        path = hcq::paths::registry::make(req.spec);
    }
    tr.count("paths.made");
    const std::string kind = path->spec().kind;
    const std::size_t n = req.num_uses;
    hcq::wireless::mimo_config mimo;
    mimo.mod = hcq::wireless::parse_modulation(req.mod);
    mimo.num_users = req.num_users;
    mimo.num_antennas = req.num_users;
    mimo.channel = hcq::wireless::channel_model::rayleigh;
    mimo.noise_variance =
        hcq::wireless::noise_variance_for_snr(mimo.mod, req.num_users, req.snr_db);

    std::vector<rng> synth_rngs, solve_rngs;
    {
        const auto s = tr.open("util", "derive");
        const std::uint64_t master = serve::request_seed(req.tenant_id, req.request_seq, req.seed);
        const rng synth_base = rng(master).derive(domains::synthesis);
        const rng solve_base = rng(master).derive(domains::solve);
        synth_rngs.reserve(n);
        solve_rngs.reserve(n);
        for (std::size_t u = 0; u < n; ++u) {
            synth_rngs.push_back(synth_base.derive(u));
            solve_rngs.push_back(solve_base.derive(u));
        }
    }
    std::unique_ptr<hcq::paths::workspace> ws;
    {
        const auto s = tr.open("paths", "workspace");
        ws = std::make_unique<hcq::paths::workspace>();
    }
    std::vector<hcq::wireless::mimo_instance> instances(n);
    {
        const auto s = tr.open("wireless", "synth");
        for (std::size_t u = 0; u < n; ++u) {
            hcq::wireless::synthesize_into(synth_rngs[u], mimo, instances[u]);
        }
    }
    tr.count("wireless.synth_calls", n);
    std::vector<hcq::paths::path_context> ctxs;
    ctxs.reserve(n);
    for (std::size_t u = 0; u < n; ++u) {
        ctxs.push_back({instances[u], nullptr, solve_rngs[u], ws.get()});
    }
    std::vector<hcq::paths::path_result> cells(n);
    {
        const auto s = tr.open("paths", kind + ".run_block");
        for (std::size_t u = 0; u < n; ++u) {
            path->run_block(std::span<const hcq::paths::path_context>(&ctxs[u], 1),
                            std::span<hcq::paths::path_result>(&cells[u], 1));
        }
    }
    tr.count("paths." + kind + ".run_block", n);
    if (req.want_soft) {
        {
            const auto s = tr.open("paths", kind + ".soft_output");
            for (std::size_t u = 0; u < n; ++u) path->soft_output(ctxs[u], cells[u]);
        }
        tr.count("paths." + kind + ".soft_output", n);
    }
    serve::batch_result out;
    {
        const auto s = tr.open("metrics", "fold");
        hcq::metrics::ber_counter ber;
        for (std::size_t u = 0; u < n; ++u) {
            ber.add_frame(instances[u].tx_bits, cells[u].bits);
            if (cells[u].bits == instances[u].tx_bits) ++out.exact_frames;
            out.sum_ml_cost += cells[u].ml_cost;
            out.bits.push_back(cells[u].bits);
            out.ml_cost.push_back(cells[u].ml_cost);
            out.llrs.insert(out.llrs.end(), cells[u].llrs.begin(), cells[u].llrs.end());
        }
        out.bit_errors = ber.errors();
        out.total_bits = ber.total_bits();
    }
    return out;
}

bool same_batch(const serve::batch_result& a, const serve::batch_result& b) {
    return a.bits == b.bits && a.ml_cost == b.ml_cost && a.llrs == b.llrs &&
           a.bit_errors == b.bit_errors && a.total_bits == b.total_bits &&
           a.exact_frames == b.exact_frames && a.sum_ml_cost == b.sum_ml_cost;
}

/// Mean microseconds of `op` over `reps` repetitions.
template <typename Op>
double time_op(std::size_t reps, Op&& op) {
    const double t0 = now_us();
    for (std::size_t i = 0; i < reps; ++i) op();
    return (now_us() - t0) / static_cast<double>(reps);
}

/// Request counts over a run's timed rounds (the rounds' digests are merged
/// as they finish, not kept).
struct tally {
    std::uint64_t rounds = 0;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t busy = 0;
    std::uint64_t deadline = 0;
    std::uint64_t error = 0;
    std::uint64_t uses = 0;

    void add(const round_result& r) {
        ++rounds;
        for (const auto* l : {&r.hard, &r.soft}) {
            sent += l->sent;
            ok += l->ok;
            busy += l->busy;
            deadline += l->deadline;
            error += l->bad_request + l->internal_error;
            uses += l->uses_served;
        }
    }

    void account(std::size_t warm_rounds, run_result& res) const {
        const std::uint64_t bad = busy + deadline + error;
        res.attempted = sent;
        res.failed = bad;
        res.account("rounds", rounds);
        res.account("warmup_rounds", warm_rounds);
        res.account("requests", sent);
        res.account("uses", uses);
        res.account("frames", uses);
        res.account("retransmissions", 0);
        res.account("non_ok", bad);
        res.check(bad == 0, "no response is busy, deadline, bad-request or error");
    }
};

/// One round's request latency quantile `q` (percent), averaged over the two
/// kinds.  Half the requests are each kind, so a pooled median would sit in
/// the gap between the two kinds' latency modes and jump with noise.  The
/// run reports the median of these over its rounds: a burst of host
/// preemption that disturbs a minority of rounds does not move it.
double mean_of_kinds(const round_result& r, double q) {
    return (r.hard.latency.quantile(q) + r.soft.latency.quantile(q)) / 2.0;
}

void run_untraced(const options& opts, const mix& m, run_result& res) {
    std::vector<double> setups;
    std::unique_ptr<serve::tcp_server> server;
    const int reps = setup_repeats(opts);
    for (int r = 0; r < reps; ++r) {
        server.reset();  // stops and joins the previous set-up's server
        double s = 0.0;
        server = set_up(m, s);
        setups.push_back(s);
    }

    tally counts;
    std::vector<double> uses_per_s, cpu_per_use, p50_us, p90_us;
    hcq::metrics::latency_digest latency, hard_latency, soft_latency;
    const double deadline = now_us() + opts.seconds * 1e6;
    do {
        const round_result r =
            run_round(server->port(), m, counts.rounds, m.requests_per_connection);
        const double uses = static_cast<double>(r.hard.uses_served + r.soft.uses_served);
        uses_per_s.push_back(uses / (r.wall_us / 1e6));
        cpu_per_use.push_back(uses > 0 ? r.cpu_us / uses : 0.0);
        p50_us.push_back(mean_of_kinds(r, 50.0));
        p90_us.push_back(mean_of_kinds(r, 90.0));
        latency.merge(r.hard.latency);
        latency.merge(r.soft.latency);
        hard_latency.merge(r.hard.latency);
        soft_latency.merge(r.soft.latency);
        counts.add(r);
    } while (now_us() < deadline);
    counts.account(static_cast<std::size_t>(reps), res);
    // The tail is a reference figure only: it does not repeat within the
    // benchmark's bounds.
    std::cerr << "serve-mixed request p99 " << latency.p99() << " us over " << latency.count()
              << " requests; hard p50 " << hard_latency.p50() << " p90 "
              << hard_latency.quantile(90) << " us, soft p50 " << soft_latency.p50() << " p90 "
              << soft_latency.quantile(90) << " us\n";
    check_sampled_requests(server->port(), m, res);
    server.reset();

    emit_metrics(end_to_end_metrics(),
                 {{"uses_per_s", median(uses_per_s)},
                  {"cpu_us_per_use", median(cpu_per_use)},
                  {"setup_s", median(setups)},
                  {"peak_rss_mib", peak_rss_mib()},
                  {"request_p50_us", median(p50_us)},
                  {"request_p90_us", median(p90_us)}},
                 res);
}

void run_traced(const options& opts, const mix& m, run_result& res) {
    double setup_s = 0.0;
    auto server = set_up(m, setup_s);
    tally counts;
    std::vector<double> p50_us;
    hcq::metrics::latency_digest queue_wait;
    const std::size_t num_rounds = opts.smoke ? 2 : 20;
    for (std::size_t i = 0; i < num_rounds; ++i) {
        const round_result r = run_round(server->port(), m, i, m.requests_per_connection);
        p50_us.push_back(mean_of_kinds(r, 50.0));
        queue_wait.merge(r.hard.queue_wait);
        queue_wait.merge(r.soft.queue_wait);
        counts.add(r);
    }
    counts.account(1, res);
    check_sampled_requests(server->port(), m, res);
    server.reset();

    // Round 0's requests in process: run_batch, then the traced driver
    // alternately with span recording off and on.
    std::vector<serve::request> reqs;
    for (const bool soft : {false, true}) {
        for (std::size_t c = 0; c < m.connections_per_kind; ++c) {
            for (std::size_t seq = 0; seq < m.requests_per_connection; ++seq) {
                reqs.push_back(stamped(m, 0, soft, c, seq));
            }
        }
    }
    std::vector<serve::batch_result> batches;
    std::vector<double> batch_us[2], inner_us[2];  // [0] hard, [1] soft
    for (const auto& req : reqs) {
        const double t0 = now_us();
        batches.push_back(serve::run_batch(req));
        batch_us[req.want_soft].push_back(now_us() - t0);
        const auto& b = batches.back();
        inner_us[req.want_soft].push_back(b.synth_us + b.qubo_us + b.solve_us);
    }
    std::optional<tracer> tr;
    std::vector<double> on_us, off_us;
    for (int r = 0; r < 2; ++r) {
        for (const bool recording : {false, true}) {
            tr.emplace(recording);
            const double t0 = now_us();
            std::vector<serve::batch_result> traced;
            {
                const auto root = tr->open("bench", "serve");
                for (const auto& req : reqs) traced.push_back(traced_batch(req, *tr));
            }
            (recording ? on_us : off_us).push_back(now_us() - t0);
            bool same = traced.size() == batches.size();
            for (std::size_t i = 0; same && i < traced.size(); ++i) {
                same = same_batch(traced[i], batches[i]);
            }
            res.check(same, "traced batches reproduce run_batch outputs");
        }
    }

    const tracer::self_times self = tr->summarize();
    const auto cnt = [&](const std::string& k) { return static_cast<double>(tr->counted(k)); };
    const double busy_us = self.attributed_us();
    const double uses = cnt("wireless.synth_calls");

    std::map<std::string, double> v;
    v["wireless.synth_calls"] = uses;
    v["wireless.synth_us_per_use"] = ratio(self.key("wireless.synth"), uses);
    for (const std::string kind : {"zf", "sphere"}) {
        v["paths." + kind + ".run_block_us_per_use"] =
            ratio(self.key("paths." + kind + ".run_block"), cnt("paths." + kind + ".run_block"));
    }
    v["paths.sphere.soft_output_us_per_use"] =
        ratio(self.key("paths.sphere.soft_output"), cnt("paths.sphere.soft_output"));
    v["paths.registry_make_us"] = ratio(self.key("paths.registry_make"), cnt("paths.made"));
    v["metrics.fold_us_per_use"] = ratio(self.key("metrics.fold"), uses);
    v["util.rng_us_per_use"] = ratio(self.layer("util"), uses);

    // Per-kind medians averaged, like request_p50_us.
    const double run_batch_p50 = (median(batch_us[0]) + median(batch_us[1])) / 2.0;
    v["serve.run_batch_us"] = run_batch_p50;
    v["serve.inner_compute_us"] = (median(inner_us[0]) + median(inner_us[1])) / 2.0;
    v["serve.queue_wait_us"] = queue_wait.p50();
    v["serve.wire_overhead_us"] = median(p50_us) - run_batch_p50;
    const std::size_t reps = opts.smoke ? 50 : 2000;
    for (const bool soft : {false, true}) {
        const std::size_t i = soft ? reqs.size() - 1 : 0;
        const serve::request& req = reqs[i];
        const serve::response resp = serve::make_ok_response(req, batches[i]);
        const auto req_bytes = serve::encode_request(req);
        const auto resp_bytes = serve::encode_response(resp);
        const std::string p = std::string("serve.protocol.") + (soft ? "soft." : "hard.");
        v[p + "encode_request_us"] = time_op(reps, [&] { (void)serve::encode_request(req); });
        v[p + "decode_request_us"] = time_op(reps, [&] { (void)serve::decode_request(req_bytes); });
        v[p + "encode_response_us"] = time_op(reps, [&] { (void)serve::encode_response(resp); });
        v[p + "decode_response_us"] =
            time_op(reps, [&] { (void)serve::decode_response(resp_bytes); });
        v[std::string("serve.response_bytes.") + (soft ? "soft" : "hard")] =
            static_cast<double>(resp_bytes.size());
        res.check(serve::decode_request(req_bytes).spec == req.spec &&
                      serve::decode_response(resp_bytes).ml_cost == resp.ml_cost,
                  req.spec + ": protocol round trip preserves the request and response");
    }
    v["serve.requests_ok"] = static_cast<double>(counts.ok);
    v["serve.requests_busy"] = static_cast<double>(counts.busy);
    v["serve.requests_deadline"] = static_cast<double>(counts.deadline);
    v["serve.requests_error"] = static_cast<double>(counts.error);
    v["trace.attributed_share"] = busy_us / on_us.back();
    v["trace.overhead_pct"] = (median(on_us) - median(off_us)) / median(off_us) * 100.0;
    v["trace.wall_ms"] = median(on_us) / 1e3;
    v["trace.untraced_wall_ms"] = median(off_us) / 1e3;
    v["trace.spans"] = static_cast<double>(tr->spans().size());

    if (!opts.out_dir.empty()) {
        std::filesystem::create_directories(opts.out_dir);
        tr->write_json(opts.out_dir + "/" + serve_workload_name + ".spans.json",
                       serve_workload_name);
    }
    emit_metrics(per_layer_metrics(), v, res);
}

}  // namespace

run_result run_serve_workload(const options& opts) {
    run_result res;
    const mix m = make_mix(opts);
    if (opts.trace) {
        run_traced(opts, m, res);
    } else {
        run_untraced(opts, m, res);
    }
    return res;
}

void print_reference_figures(std::uint64_t seed) {
    for (const std::size_t threads : {1, 2, 4}) {
        hcq::link::link_config c;
        c.num_uses = 100000;
        c.paths = hcq::paths::parse_spec_list("zf,kbest");
        c.num_threads = threads;
        c.seed = seed;
        std::vector<double> walls;
        for (int r = 0; r < 5; ++r) {
            const double t0 = now_us();
            (void)hcq::link::run_link_simulation(c);
            walls.push_back((now_us() - t0) / 1e6);
        }
        std::cout << "link_sim zf,kbest 100000 uses, " << threads << " thread(s): median "
                  << median(walls) << " s, quartiles " << quantile(walls, 0.25) << " .. "
                  << quantile(walls, 0.75) << " s over 5 runs\n";
    }
    serve::request req;
    req.seed = seed;
    req.num_uses = batch_uses;
    req.spec = "zf";
    std::vector<double> us;
    for (std::uint64_t i = 0; i < 200; ++i) {
        req.request_seq = i;
        const double t0 = now_us();
        (void)serve::run_batch(req);
        us.push_back(now_us() - t0);
    }
    std::cout << "run_batch zf 32 uses: median " << median(us) << " us, min "
              << quantile(us, 0.0) << " us over 200 requests\n";
}

}  // namespace perfbench
