// In-memory span recorder of the traced run.
//
// The benchmark records spans in its own code, around each call it makes
// into a layer's public functions; the layer names are the src/ module
// names (wireless, detect, paths, fec, arq, pipeline, metrics, util, ...),
// and "bench" marks the driver's own glue.  A span carries its layer, an
// optional detail (e.g. the path kind), start, end, and the span that was
// open when it started.  Counts are recorded at the same boundaries.
//
// Single-threaded by design: the traced run drives every layer from one
// thread, so spans nest strictly and a layer's self time is its span's
// duration minus the durations of its direct children.
//
// With recording off every call is a no-op (no clock read, no allocation):
// the same driver run both ways gives the tracing overhead.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class tracer {
public:
    struct span {
        std::uint32_t parent = 0;  ///< 1-based index of the enclosing span, 0 = root
        std::string layer;
        std::string detail;
        double start_us = 0.0;
        double end_us = 0.0;
    };

    /// Closes its span when it goes out of scope.
    class scope {
    public:
        scope(tracer& owner, std::uint32_t id) : owner_(owner), id_(id) {}
        ~scope() { owner_.close(id_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer& owner_;
        std::uint32_t id_;
    };

    explicit tracer(bool recording) : recording_(recording) {}

    [[nodiscard]] bool recording() const noexcept { return recording_; }

    /// Opens a span of `layer` (child of the innermost open span).
    [[nodiscard]] scope open(const char* layer, const std::string& detail = {});

    /// Adds `n` to the named count (no-op when not recording).
    void count(const std::string& name, std::uint64_t n = 1);
    [[nodiscard]] std::uint64_t counted(const std::string& name) const;

    [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }

    /// Self times (us): a span's duration minus its direct children's.
    struct self_times {
        std::map<std::string, double> by_layer;
        std::map<std::string, double> by_key;  ///< "layer.detail", or "layer" without detail

        [[nodiscard]] double layer(const std::string& name) const;  ///< 0 when absent
        [[nodiscard]] double key(const std::string& name) const;    ///< 0 when absent
        /// Self time of every layer but the driver's own glue ("bench").
        [[nodiscard]] double attributed_us() const;
    };
    [[nodiscard]] self_times summarize() const;
    /// Inclusive time (us) of every span of `layer` with `detail`.
    [[nodiscard]] double inclusive_us(const std::string& layer, const std::string& detail) const;

    /// Writes the spans, counts, and per-layer self times as JSON.
    void write_json(const std::string& path, const std::string& workload) const;

private:
    void close(std::uint32_t id);
    [[nodiscard]] std::vector<double> span_self_us() const;

    bool recording_;
    std::vector<span> spans_;
    std::vector<std::uint32_t> open_;  ///< stack of open span ids (1-based)
    std::map<std::string, std::uint64_t> counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
