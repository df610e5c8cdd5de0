/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload boot-tmult|serve-mix|sim-paper --seed N
 *             --seconds S --trace 0|1
 *
 * Runs one workload for S measured seconds on inputs made from the
 * seed, checks every output, prints a human-readable report, and ends
 * with one JSON line: {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 reports the end-to-end metrics with tracing off; --trace 1
 * is a separate run reporting the per-layer metrics. Every workload
 * prints every metric BENCHMARK.json lists for the mode (per-layer ones
 * a workload never touches read 0). Exit code 2 on bad arguments or a
 * crash.
 */
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/parallel.h"

namespace {

using namespace perfbench;

bool
parse(int argc, char** argv, Args& a)
{
    bool have[4] = {false, false, false, false};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload") {
                a.workload = val;
                have[0] = true;
            } else if (key == "--seed") {
                a.seed = std::stoull(val);
                have[1] = true;
            } else if (key == "--seconds") {
                a.seconds = std::stod(val);
                have[2] = a.seconds > 0;
            } else if (key == "--trace") {
                a.trace = val == "1";
                have[3] = val == "0" || val == "1";
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload boot-tmult|serve-mix|"
                     "sim-paper --seed N --seconds S --trace 0|1\n";
        return 2;
    }
    // Intra-op threading pinned to 1 so BTS_NUM_THREADS cannot change
    // results; workloads parallelize across server/executor lanes only.
    bts::set_num_threads(1);

    Outcome out;
    try {
        if (args.workload == "boot-tmult") {
            out = run_boot_tmult(args);
        } else if (args.workload == "serve-mix") {
            out = run_serve_mix(args);
        } else if (args.workload == "sim-paper") {
            out = run_sim_paper(args);
        } else {
            std::cerr << "unknown workload: " << args.workload << "\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    // BENCHMARK.json lists the metrics of each mode; selftest.py checks
    // that every workload prints exactly those, with their units.
    auto& metrics = args.trace ? out.per_layer : out.end_to_end;
    if (metrics.empty()) out.error = "no metrics produced";
    const bool correct = out.failed == 0 && out.error.empty();

    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("  %-32s %16llx\n", "input_digest",
                static_cast<unsigned long long>(out.input_digest));
    std::printf("  %-32s %16zu\n", "attempted", out.attempted);
    std::printf("  %-32s %16zu\n", "failed", out.failed);
    const double failed_share =
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;
    std::printf("  %-32s %16.6g share\n", "failed_share", failed_share);
    for (const auto& [name, m] : out.report) {
        std::printf("  %-32s %16.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("  -- %s --\n", args.trace ? "per-layer" : "end-to-end");
    for (const auto& [name, m] : metrics) {
        std::printf("  %-32s %16.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    }
    if (!out.error.empty()) std::printf("  error: %s\n", out.error.c_str());

    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}
