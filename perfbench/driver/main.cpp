// hcqbench — the benchmark driver of the hcq link simulator and serving
// plane.
//
//   hcqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--out-dir <dir>]
//   hcqbench --reference [--seed <n>]
//
// Prints an accounting line, then the one-line JSON result as the last line
// of standard output.  Exits 1 when a correctness check failed, 2 on a usage
// error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "catalog.h"
#include "workloads.h"

namespace {

int usage(const std::string& message) {
    std::cerr << "hcqbench: " << message << "\n"
              << "usage: hcqbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke] [--out-dir <dir>]\n       hcqbench --reference [--seed <n>]\n"
              << "workloads:";
    for (const auto& w : perfbench::workload_names()) std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::options opts;
    bool reference = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opts.workload = value();
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value());
            } else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1") return usage("--trace takes 0 or 1");
                opts.trace = t == "1";
            } else if (arg == "--smoke") {
                opts.smoke = true;
            } else if (arg == "--out-dir") {
                opts.out_dir = value();
            } else if (arg == "--reference") {
                reference = true;
            } else {
                return usage("unknown argument '" + arg + "'");
            }
        } catch (const std::exception& e) {
            return usage(arg + ": " + e.what());
        }
    }
    try {
        if (reference) {
            perfbench::print_reference_figures(opts.seed);
            return 0;
        }
        if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
        perfbench::run_result result;
        if (const auto wl = perfbench::find_link_workload(opts.workload, opts.smoke)) {
            result = perfbench::run_link_workload(opts, *wl);
        } else if (opts.workload == perfbench::serve_workload_name) {
            result = perfbench::run_serve_workload(opts);
        } else {
            return usage("unknown workload '" + opts.workload + "'");
        }
        result.print();
        return result.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "hcqbench: " << opts.workload << " failed: " << e.what() << "\n";
        return 3;
    }
}
