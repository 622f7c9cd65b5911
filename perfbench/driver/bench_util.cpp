#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <iostream>
#include <thread>

namespace perfbench {

double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_us() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto us = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
    };
    return us(usage.ru_utime) + us(usage.ru_stime);
}

double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    throw std::runtime_error("peak_rss_mib: no VmHWM in /proc/self/status");
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t load_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw, 1, 2);
}

void run_result::check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
}

void run_result::add_metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void run_result::account(std::string name, std::uint64_t value) {
    accounting_.emplace_back(std::move(name), value);
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

void run_result::print() const {
    for (const auto& f : failures_) std::cerr << "CHECK FAILED: " << f << "\n";
    std::string acc = "{\"accounting\": {";
    for (std::size_t i = 0; i < accounting_.size(); ++i) {
        if (i > 0) acc += ", ";
        acc += json_string(accounting_[i].first) + ": " + std::to_string(accounting_[i].second);
    }
    acc += "}, \"checks\": " + std::to_string(checks_) +
           ", \"checks_failed\": " + std::to_string(failures_.size()) + "}";
    std::cout << acc << "\n";

    std::string line = "{\"correct\": ";
    line += correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0) line += ", ";
        line += json_string(metrics_[i].name) + ": {\"value\": " +
                json_number(metrics_[i].value) + ", \"unit\": " + json_string(metrics_[i].unit) +
                "}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

}  // namespace perfbench
