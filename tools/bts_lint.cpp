/**
 * @file
 * bts_lint: run the static graph verifier over builtin workload/app
 * graphs and report the diagnostics — the repository's "compile-check
 * the circuits" tool. No keys, no ciphertexts, no execution: a full
 * Table 5/6 application graph lints in milliseconds, which is what
 * lets CI catch graph regressions on every push.
 *
 * Usage:
 *   bts_lint --list
 *   bts_lint --all-builtin [--raw] [--instance=ins1|ins2|ins3]
 *            [--format=text|json]
 *   bts_lint --graph=helr [--dot=helr.dot] [...]
 *   bts_lint --graph=helr --cost [--schedule]
 *            [--max-peak-live-mib=N] [--max-evk-ws-mib=N]
 *            [--min-parallelism=X]
 *
 * --raw lints the unoptimized builder-authored form next to the
 * default pass-pipeline output; --dot writes a Graphviz rendering
 * annotated with each node's re-derived level and worst-case
 * noise/budget bits (requires exactly one selected graph). Exit code:
 * 0 when no error-level diagnostic was produced, 1 otherwise, 2 on
 * usage errors.
 *
 * --cost runs the static resource analyzer (runtime/analysis/resource.h)
 * against the selected instance and appends the cost report (exact op
 * counts, work split, evk traffic, peak live set, critical path); with
 * --dot the rendering is the cost/liveness-annotated form instead of
 * the verifier's. --schedule prints the per-node serial schedule
 * table. The --max-peak-live-mib / --max-evk-ws-mib /
 * --min-parallelism budgets turn resource findings into RS- rule
 * diagnostics (rs-peak-live, rs-evk-working-set, rs-critical-path)
 * merged into the lint report — errors count toward the exit code.
 */
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "hwparams/instance.h"
#include "runtime/analysis/resource.h"
#include "runtime/analysis/verifier.h"
#include "runtime/apps/paper.h"

namespace {

using namespace bts;
using namespace bts::runtime;

int
usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--all-builtin | --graph=<name>...] [--raw]\n"
           "       [--instance=ins1|ins2|ins3] [--format=text|json]\n"
           "       [--dot=<path>] [--list]\n"
           "       [--cost] [--schedule] [--max-peak-live-mib=<N>]\n"
           "       [--max-evk-ws-mib=<N>] [--min-parallelism=<X>]\n"
           "exit 0: no error diagnostics; 1: errors found; 2: usage\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> names;
    std::string format = "text";
    std::string dot_path;
    std::string instance = "ins1";
    bool raw = false;
    bool all = false;
    bool cost = false;
    bool schedule = false;
    bool limits_set = false;
    bts::runtime::analysis::ResourceLimits limits;
    const std::vector<std::string_view> builtins = apps::paper_graph_names();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) {
            return arg.substr(std::strlen(prefix));
        };
        const auto num = [&](const char* prefix) {
            return std::stod(value(prefix));
        };
        if (arg == "--list") {
            for (const std::string_view name : builtins) {
                std::cout << name << "\n";
            }
            return 0;
        } else if (arg == "--all-builtin") {
            all = true;
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg.rfind("--graph=", 0) == 0) {
            names.push_back(value("--graph="));
        } else if (arg.rfind("--format=", 0) == 0) {
            format = value("--format=");
        } else if (arg.rfind("--dot=", 0) == 0) {
            dot_path = value("--dot=");
        } else if (arg.rfind("--instance=", 0) == 0) {
            instance = value("--instance=");
        } else if (arg == "--cost") {
            cost = true;
        } else if (arg == "--schedule") {
            schedule = true;
        } else if (arg.rfind("--max-peak-live-mib=", 0) == 0) {
            limits.max_peak_live_bytes =
                num("--max-peak-live-mib=") * 1024.0 * 1024.0;
            limits_set = true;
        } else if (arg.rfind("--max-evk-ws-mib=", 0) == 0) {
            limits.max_evk_working_set_bytes =
                num("--max-evk-ws-mib=") * 1024.0 * 1024.0;
            limits_set = true;
        } else if (arg.rfind("--min-parallelism=", 0) == 0) {
            limits.min_parallelism = num("--min-parallelism=");
            limits_set = true;
        } else {
            std::cerr << "bts_lint: unknown argument '" << arg << "'\n";
            return usage(argv[0]);
        }
    }
    if (format != "text" && format != "json") {
        std::cerr << "bts_lint: unknown format '" << format << "'\n";
        return usage(argv[0]);
    }
    if (all) names.assign(builtins.begin(), builtins.end());
    if (names.empty()) return usage(argv[0]);
    if (!dot_path.empty() && names.size() != 1) {
        std::cerr << "bts_lint: --dot needs exactly one graph\n";
        return usage(argv[0]);
    }

    hw::CkksInstance inst;
    if (instance == "ins1") {
        inst = hw::ins1();
    } else if (instance == "ins2") {
        inst = hw::ins2();
    } else if (instance == "ins3") {
        inst = hw::ins3();
    } else {
        std::cerr << "bts_lint: unknown instance '" << instance << "'\n";
        return usage(argv[0]);
    }

    bool any_errors = false;
    bool first = true;
    if (format == "json") std::cout << "[";
    for (const std::string& name : names) {
        if (std::find(builtins.begin(), builtins.end(), name) ==
            builtins.end()) {
            std::cerr << "bts_lint: unknown graph '" << name
                      << "' (try --list)\n";
            return usage(argv[0]);
        }
        try {
            const Graph g = apps::paper_graph(name, inst, !raw);
            const analysis::Analysis a = analysis::analyze(g);
            std::vector<analysis::Diagnostic> diags = a.diags;
            const bool want_resources = cost || schedule || limits_set;
            analysis::ResourceSummary summary;
            if (want_resources) {
                summary = analysis::analyze_resources(g, inst);
                if (limits_set) {
                    const std::vector<analysis::Diagnostic> rs =
                        analysis::check_resources(summary, limits);
                    diags.insert(diags.end(), rs.begin(), rs.end());
                }
            }
            any_errors = any_errors || analysis::has_errors(diags);
            if (format == "json") {
                std::cout << (first ? "" : ",\n");
                if (cost) {
                    // Wrapper object so the lint payload keeps its
                    // grep-stable shape under the "lint" key.
                    std::cout << "{\"lint\": "
                              << analysis::render_json(g.name(), diags)
                              << ", \"resources\": "
                              << analysis::render_resource_json(g.name(),
                                                                summary)
                              << "}";
                } else {
                    std::cout << analysis::render_json(g.name(), diags);
                }
            } else {
                std::cout << analysis::render_text(g.name(), diags);
                if (cost) {
                    std::cout << analysis::render_resource_text(g.name(),
                                                                summary);
                }
                if (schedule) {
                    std::cout << analysis::render_schedule_text(g,
                                                                summary);
                }
            }
            first = false;
            if (!dot_path.empty()) {
                std::ofstream out(dot_path);
                if (!out) {
                    std::cerr << "bts_lint: cannot write '" << dot_path
                              << "'\n";
                    return 2;
                }
                out << (cost ? analysis::to_resource_dot(g, summary)
                             : analysis::to_annotated_dot(g, a));
            }
        } catch (const analysis::VerifyError& e) {
            // The builder itself refused the graph: report its
            // diagnostics in the same shape as analysis findings.
            any_errors = true;
            if (format == "json") {
                std::cout << (first ? "" : ",\n")
                          << analysis::render_json(e.graph_name(),
                                                   e.diagnostics());
            } else {
                std::cout << analysis::render_text(e.graph_name(),
                                                   e.diagnostics());
            }
            first = false;
        } catch (const std::exception& e) {
            any_errors = true;
            std::cerr << "bts_lint: building '" << name
                      << "' failed: " << e.what() << "\n";
        }
    }
    if (format == "json") std::cout << "]\n";
    return any_errors ? 1 : 0;
}
