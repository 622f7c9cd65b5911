#include "catalog.h"

#include <stdexcept>

#include "arq/arq.h"
#include "fec/code_spec.h"
#include "paths/detection_path.h"
#include "wireless/channel_spec.h"

namespace perfbench {

std::optional<link_workload> find_link_workload(const std::string& name, bool smoke) {
    hcq::link::link_config c;
    c.num_users = 4;
    c.mod = hcq::wireless::modulation::qam16;
    c.snr_db = 16.0;
    c.channel = hcq::wireless::channel_model::rayleigh;
    if (name == "link-uncoded-arq") {
        c.paths = hcq::paths::parse_spec_list("zf,mmse,kbest,sphere");
        c.arq = hcq::arq::parse_arq("deadline_us=auto,max_retx=2");
        c.num_uses = smoke ? 512 : 4096;
        return link_workload{name, c, 256, smoke ? 4u : 16u};
    } else if (name == "link-coded-harq") {
        c.paths = hcq::paths::parse_spec_list("zf,mmse,kbest,sphere");
        c.channel_spec = hcq::wireless::channel_spec::parse("jakes:doppler_hz=5,est_err=0.02");
        c.fec = hcq::fec::code_spec::parse("k7");
        c.arq = hcq::arq::parse_arq("max_retx=2");
        c.num_uses = smoke ? 128 : 1024;  // whole k7 frames of 8 uses
        return link_workload{name, c, 256, smoke ? 4u : 16u};
    } else if (name == "link-hybrid") {
        c.paths = hcq::paths::parse_spec_list("gsra,kxra:k=4,sa,tabu,sphere");
        c.num_uses = smoke ? 8 : 48;
        return link_workload{name, c, 4, smoke ? 2u : 8u};
    }
    return std::nullopt;
}

std::vector<std::string> workload_names() {
    return {"link-uncoded-arq", "link-coded-harq", "link-hybrid", serve_workload_name};
}

const std::vector<metric_def>& end_to_end_metrics() {
    static const std::vector<metric_def> defs{
        {"uses_per_s", "uses/s"},    {"cpu_us_per_use", "us"},  {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},     {"request_p50_us", "us"},  {"request_p90_us", "us"},
    };
    return defs;
}

const std::vector<metric_def>& per_layer_metrics() {
    static const std::vector<metric_def> defs{
        {"wireless.synth_us_per_use", "us"},
        {"wireless.synth_calls", "count"},
        {"detect.reduce_us_per_use", "us"},
        {"detect.reductions", "count"},
        {"paths.zf.run_block_us_per_use", "us"},
        {"paths.mmse.run_block_us_per_use", "us"},
        {"paths.kbest.run_block_us_per_use", "us"},
        {"paths.sphere.run_block_us_per_use", "us"},
        {"paths.gsra.run_block_us_per_use", "us"},
        {"paths.kxra.run_block_us_per_use", "us"},
        {"paths.sa.run_block_us_per_use", "us"},
        {"paths.tabu.run_block_us_per_use", "us"},
        {"paths.zf.soft_output_us_per_use", "us"},
        {"paths.mmse.soft_output_us_per_use", "us"},
        {"paths.kbest.soft_output_us_per_use", "us"},
        {"paths.sphere.soft_output_us_per_use", "us"},
        {"paths.registry_make_us", "us"},
        {"classical.sa.solve_us_per_use", "us"},
        {"classical.tabu.solve_us_per_use", "us"},
        {"core.gsra.solve_us_per_use", "us"},
        {"core.kxra.solve_us_per_use", "us"},
        {"fec.encode_us_per_frame", "us"},
        {"fec.decode_us_per_frame", "us"},
        {"fec.decodes", "count"},
        {"arq.retx_attempts", "count"},
        {"arq.frames_corrected", "count"},
        {"arq.retx_fix_ratio", "ratio"},
        {"arq.retx_us_per_attempt", "us"},
        {"arq.closed_replay_ms", "ms"},
        {"pipeline.replay_us_per_job", "us"},
        {"metrics.fold_us_per_use", "us"},
        {"util.rng_us_per_use", "us"},
        {"link.overhead_us_per_use", "us"},
        {"link.parallel_efficiency", "ratio"},
        {"link.layer_busy_ms", "ms"},
        {"link.wall_ms", "ms"},
        {"link.threads", "count"},
        {"link.single_thread_wall_ms", "ms"},
        {"serve.run_batch_us", "us"},
        {"serve.inner_compute_us", "us"},
        {"serve.queue_wait_us", "us"},
        {"serve.wire_overhead_us", "us"},
        {"serve.protocol.hard.encode_request_us", "us"},
        {"serve.protocol.hard.decode_request_us", "us"},
        {"serve.protocol.hard.encode_response_us", "us"},
        {"serve.protocol.hard.decode_response_us", "us"},
        {"serve.protocol.soft.encode_request_us", "us"},
        {"serve.protocol.soft.decode_request_us", "us"},
        {"serve.protocol.soft.encode_response_us", "us"},
        {"serve.protocol.soft.decode_response_us", "us"},
        {"serve.response_bytes.hard", "bytes"},
        {"serve.response_bytes.soft", "bytes"},
        {"serve.requests_ok", "count"},
        {"serve.requests_busy", "count"},
        {"serve.requests_deadline", "count"},
        {"serve.requests_error", "count"},
        {"trace.attributed_share", "ratio"},
        {"trace.overhead_pct", "%"},
        {"trace.wall_ms", "ms"},
        {"trace.untraced_wall_ms", "ms"},
        {"trace.spans", "count"},
    };
    return defs;
}

void emit_metrics(const std::vector<metric_def>& defs, const std::map<std::string, double>& values,
                  run_result& result) {
    for (const auto& [name, value] : values) {
        bool known = false;
        for (const auto& d : defs) known = known || name == d.name;
        if (!known) throw std::logic_error("metric '" + name + "' is not in the catalogue");
    }
    for (const auto& d : defs) {
        const auto it = values.find(d.name);
        result.add_metric(d.name, it == values.end() ? 0.0 : it->second, d.unit);
    }
}

}  // namespace perfbench
