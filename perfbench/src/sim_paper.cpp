/**
 * @file
 * sim-paper: the accelerator model's application sweep.
 *
 * A closed loop where one job is one sweep: lower_to_trace plus
 * BtsSimulator::run over the raw (unoptimized) paper-scale HELR,
 * ResNet-20 and sorting graphs and tmult_graph, on each Table 4
 * instance (12 pairs). No ciphertext is touched, so kernel and server
 * changes should leave it unchanged; it is the path that rewrites of
 * the circuit descriptions and the lowering move.
 *
 * Every sweep is checked: each pair's simulated total time, op count
 * and bootstrap count must equal the pinned values exactly.
 */
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "layers.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"
#include "sim/engine.h"

namespace perfbench {

namespace {

using namespace bts;
using namespace bts::runtime;
namespace tel = bts::runtime::telemetry;

/** A set-up is only a few ms of graph building: take one every
 *  ~quarter second of the window. */
constexpr double kSetupsPerS = 4;

/** The pinned outcome of one (graph, instance) pair: bootstrap counts
 *  are Tables 5/6's (docs/APPLICATIONS.md); totals are bit-exact. */
struct Pin
{
    const char* pair;
    int boots;
    std::size_t ops;
    double total_s;
};

const Pin kPins[] = {
    {"helr/INS-1", 29, 22453, 0x1.6578c901ee90bp-1},
    {"resnet/INS-1", 54, 40091, 0x1.3a219e51b149cp+0},
    {"sort/INS-1", 524, 378133, 0x1.71ebe4d8f23bep+3},
    {"tmult/INS-1", 1, 723, 0x1.6e37c207cb5acp-6},
    {"helr/INS-2", 9, 8313, 0x1.4d3b6f51dd16p-1},
    {"resnet/INS-2", 20, 16053, 0x1.5773f4bf3833cp+0},
    {"sort/INS-2", 209, 155428, 0x1.a53e5b22c7ccap+3},
    {"tmult/INS-2", 1, 747, 0x1.04837dd85709fp-4},
    {"helr/INS-3", 7, 6899, 0x1.e7e4729daaeccp-1},
    {"resnet/INS-3", 15, 12518, 0x1.caa3bb3bdc455p+0},
    {"sort/INS-3", 131, 100282, 0x1.e158a455741b4p+3},
    {"tmult/INS-3", 1, 757, 0x1.d9ef2d504cb5bp-4},
};

struct Pair
{
    std::string name; //!< "<graph>/<instance>"
    hw::CkksInstance inst;
    Graph graph;
};

struct Env
{
    Env()
    {
        for (const hw::CkksInstance& inst : hw::table4_instances()) {
            const GraphTraits t = traits_for(inst);
            auto helr = apps::HelrConfig::paper();
            helr.optimize = false;
            auto resnet = apps::ResnetConfig::paper();
            resnet.optimize = false;
            auto sort = apps::SortConfig::paper();
            sort.optimize = false;
            pairs.push_back({"helr/" + inst.name, inst,
                             apps::build_helr(helr, t).graph});
            pairs.push_back({"resnet/" + inst.name, inst,
                             apps::build_resnet(resnet, t).graph});
            pairs.push_back({"sort/" + inst.name, inst,
                             apps::build_sort(sort, t).graph});
            pairs.push_back({"tmult/" + inst.name, inst,
                             tmult_graph(inst, passes::PassOptions::none())});
        }
    }

    std::vector<Pair> pairs;
};

const Pin*
find_pin(const std::string& pair)
{
    for (const Pin& p : kPins) {
        if (pair == p.pair) return &p;
    }
    return nullptr;
}

} // namespace

Outcome
run_sim_paper(const Args& args)
{
    const sim::BtsConfig hw;
    Outcome out;
    std::vector<double> sweep_ms, traced_ms, untraced_ms;
    double lower_ms = 0, run_ms = 0, ops_per_sweep = 0;
    const auto sweep = [&](const Env& env) {
        // Traced runs alternate tracing on and off for the overhead
        // share (the library emits nothing on this path).
        const bool traced = args.trace && out.attempted % 2 == 0;
        if (traced) tel::set_enabled(traced_categories());
        ++out.attempted;
        bool ok = true;
        double ops = 0;
        std::string mismatches;
        const Clock::time_point t0 = Clock::now();
        for (const Pair& p : env.pairs) {
            const Clock::time_point a = Clock::now();
            const sim::Trace trace = lower_to_trace(p.graph, p.inst);
            const Clock::time_point b = Clock::now();
            const sim::SimResult r = sim::BtsSimulator(hw, p.inst).run(trace);
            const Clock::time_point c = Clock::now();
            lower_ms += 1e3 * seconds(a, b);
            run_ms += 1e3 * seconds(b, c);
            ops += static_cast<double>(trace.ops.size());
            const Pin* pin = find_pin(p.name);
            if (pin == nullptr || pin->boots != trace.bootstrap_count ||
                pin->ops != trace.ops.size() || pin->total_s != r.total_s) {
                ok = false;
                char line[160];
                std::snprintf(line, sizeof line, "    {\"%s\", %d, %zu, %a},\n",
                              p.name.c_str(), trace.bootstrap_count,
                              trace.ops.size(), r.total_s);
                mismatches += line;
            }
        }
        const double ms = 1e3 * since(t0);
        tel::set_enabled(0);
        sweep_ms.push_back(ms);
        (traced ? traced_ms : untraced_ms).push_back(ms);
        ops_per_sweep = ops;
        if (!ok && out.failed++ == 0) {
            std::fprintf(stderr, "sim-paper: pins differ; observed:\n%s",
                         mismatches.c_str());
        }
    };
    std::unique_ptr<Env> env;
    const double setup_s = closed_loop(
        args.seconds, std::max(1, static_cast<int>(args.seconds * kSetupsPerS)),
        [] { return std::make_unique<Env>(); }, sweep, env);
    for (const Pair& p : env->pairs) {
        out.input_digest = digest_bytes(out.input_digest, p.name.data(),
                                        p.name.size());
    }
    const double sweeps = static_cast<double>(sweep_ms.size());

    if (!args.trace) {
        out.end_to_end["setup_s"] = {setup_s, "s"};
        out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
        put_single_class(out, median(sweep_ms));
        out.report.push_back({"latency_p50_ms", {median(sweep_ms), "ms"}});
        out.report.push_back({"jobs_per_s", {1e3 / mean(sweep_ms), "1/s"}});
        return out;
    }

    // The benchmark's own timers around the two layers it calls; the
    // library emits no telemetry on this path.
    LayerExtras x;
    x.build_ms = 1e3 * setup_s;
    x.lower_ms = lower_ms / sweeps;
    x.sim_run_ms = run_ms / sweeps;
    x.sim_ops = ops_per_sweep;
    x.job_latency_ms = mean(sweep_ms);
    x.bench_unattributed_ms = mean(sweep_ms) - (lower_ms + run_ms) / sweeps;
    x.overhead_share = overhead_share(traced_ms, untraced_ms);
    put_layers(LayerTotals{}, sweeps, x, out);
    return out;
}

} // namespace perfbench
