// Shared helpers of the benchmark driver: clocks, process resource usage,
// order statistics, the result object every workload fills, and its JSON
// rendering.
#ifndef PERFBENCH_BENCH_UTIL_H
#define PERFBENCH_BENCH_UTIL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in microseconds (arbitrary epoch).
[[nodiscard]] double now_us();

/// Process CPU time (user + system, every thread) in microseconds.
[[nodiscard]] double cpu_us();

/// Peak resident set size of this process image so far (VmHWM), in MiB.
/// Unlike getrusage's ru_maxrss it starts afresh at exec, so a parent
/// that forked this process does not leak its own size into the figure.
[[nodiscard]] double peak_rss_mib();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// total / n, or 0 when n is 0 (a layer the workload does not run).
[[nodiscard]] inline double ratio(double total, double n) { return n > 0.0 ? total / n : 0.0; }

/// Worker threads of every workload: two — half the reference machine's four
/// cores, which leaves the rest to the OS and the driver (at four threads
/// the link workloads' throughput moved about 10% run to run, at two about
/// 2.5%) — capped by this machine's hardware concurrency.
[[nodiscard]] std::size_t load_threads();

/// Command-line knobs shared by every workload.
struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;          ///< shrink every size for the benchmark's own tests
    std::string out_dir;         ///< where the traced run writes its spans ("" = nowhere)
};

/// Set-ups per untraced run; the run reports their median.
[[nodiscard]] inline int setup_repeats(const options& opts) { return opts.smoke ? 2 : 15; }

/// What one run reports: correctness, operation accounting, and metrics in
/// the order they were added.
class run_result {
public:
    struct metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    /// Records a correctness check; a false `ok` fails the run and keeps
    /// `what` for the diagnostic line.
    void check(bool ok, const std::string& what);

    void add_metric(std::string name, double value, std::string unit);
    /// Adds one operation-accounting entry (uses, frames, requests, ...).
    void account(std::string name, std::uint64_t value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
    [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

    /// Prints the accounting line, any check failures (stderr), and the
    /// final one-line JSON result.
    void print() const;

private:
    std::vector<std::string> failures_;
    std::uint64_t checks_ = 0;
    std::vector<metric> metrics_;
    std::vector<std::pair<std::string, std::uint64_t>> accounting_;
};

/// JSON string literal of `text` (quotes included).
[[nodiscard]] std::string json_string(const std::string& text);
/// Shortest round-tripping decimal form of `value` (all its digits).
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H
