#include "trace.h"

#include <fstream>
#include <stdexcept>

#include "bench_util.h"

namespace perfbench {

tracer::scope tracer::open(const char* layer, const std::string& detail) {
    if (!recording_) return scope(*this, 0);
    span s;
    s.parent = open_.empty() ? 0 : open_.back();
    s.layer = layer;
    s.detail = detail;
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::uint32_t>(spans_.size());
    open_.push_back(id);
    return scope(*this, id);
}

void tracer::close(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_us = now_us();
    open_.pop_back();  // scopes are neither copied nor moved, so `id` is the innermost
}

void tracer::count(const std::string& name, std::uint64_t n) {
    if (recording_) counts_[name] += n;
}

std::uint64_t tracer::counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
}

std::vector<double> tracer::span_self_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double duration = spans_[i].end_us - spans_[i].start_us;
        self[i] += duration;
        if (spans_[i].parent != 0) self[spans_[i].parent - 1] -= duration;
    }
    return self;
}

tracer::self_times tracer::summarize() const {
    const auto self = span_self_us();
    self_times out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        out.by_layer[s.layer] += self[i];
        out.by_key[s.detail.empty() ? s.layer : s.layer + "." + s.detail] += self[i];
    }
    return out;
}

double tracer::self_times::layer(const std::string& name) const {
    const auto it = by_layer.find(name);
    return it == by_layer.end() ? 0.0 : it->second;
}

double tracer::self_times::key(const std::string& name) const {
    const auto it = by_key.find(name);
    return it == by_key.end() ? 0.0 : it->second;
}

double tracer::self_times::attributed_us() const {
    double total = 0.0;
    for (const auto& [name, us] : by_layer) {
        if (name != "bench") total += us;
    }
    return total;
}

double tracer::inclusive_us(const std::string& layer, const std::string& detail) const {
    double total = 0.0;
    for (const auto& s : spans_) {
        if (s.layer == layer && s.detail == detail) total += s.end_us - s.start_us;
    }
    return total;
}

void tracer::write_json(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("tracer: cannot write " + path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
    out << "{\"workload\": " << json_string(workload) << ",\n\"self_us\": {";
    bool first = true;
    for (const auto& [key, us] : summarize().by_key) {
        out << (first ? "" : ", ") << json_string(key) << ": " << json_number(us);
        first = false;
    }
    out << "},\n\"counts\": {";
    first = true;
    for (const auto& [key, n] : counts_) {
        out << (first ? "" : ", ") << json_string(key) << ": " << n;
        first = false;
    }
    out << "},\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        out << "[" << i + 1 << ", " << s.parent << ", " << json_string(s.layer) << ", "
            << json_string(s.detail) << ", " << json_number(s.start_us - t0) << ", "
            << json_number(s.end_us - t0) << "]" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

}  // namespace perfbench
