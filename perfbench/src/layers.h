/**
 * @file
 * Per-layer accounting of a captured trace: self time and call count
 * per library layer, from the spans the library already emits, plus
 * the per-layer numbers a workload measures around its own calls.
 *
 * Spans nest by time on the thread that emitted them. A span's self
 * time is its duration minus its direct children's. Only spans inside
 * an Executor node span count: the node spans are the roots. Spans
 * outside any node (a checker thread decrypting, the server's own job
 * span) are ignored. check_accounting() verifies what makes the self
 * times a partition of the execution time: every child lies inside its
 * parent, and the node spans fit inside the executor's measured time.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/workspace.h"
#include "crypto.h"
#include "runtime/telemetry/trace.h"

namespace perfbench {

struct LayerTotals
{
    std::map<std::string, double> self_ms; //!< layer bucket -> summed self
    std::map<std::string, double> calls;   //!< layer bucket -> span count
    /** Bootstrap stage -> summed duration, children included. */
    std::map<std::string, double> stage_ms;
    double node_ms = 0; //!< summed node span durations (the roots)
    /** Spans that end after the span they start in (any thread). */
    bts::u64 misnested = 0;
    bts::u64 dropped = 0;
    bts::u64 events = 0;
};

/** Fold one captured trace into @p totals. */
void add_trace(const bts::runtime::telemetry::Trace& trace,
               LayerTotals& totals);

/**
 * Empty when the trace accounts for @p exec_ms (the executor's own
 * measured time for the traced jobs, summed); otherwise why not:
 * events were dropped, a span crosses its parent's end, or the node
 * spans exceed @p exec_ms or leave more than 2% of it outside any node.
 */
std::string check_accounting(const LayerTotals& totals, double exec_ms);

/** The per-layer metrics measured outside the trace. Each is per job
 *  unless noted; what a workload does not touch stays 0. */
struct LayerExtras
{
    double job_latency_ms = 0;
    /** Latency minus queue and execution (or lowering and simulation). */
    double bench_unattributed_ms = 0;
    /** Execution time minus node spans. */
    double executor_unattributed_ms = 0;
    double queue_mean_ms = 0;
    double queue_p50_ms[2] = {}; //!< cheap, heavy class
    double queue_p95_ms[2] = {};
    double exec_p50_ms[2] = {};
    double lane_busy_share = 0;
    double loadgen_lag_p99_ms = 0;
    double register_ms = 0; //!< per graph
    double build_ms = 0;    //!< at set-up
    double lower_ms = 0;    //!< per sweep
    double sim_run_ms = 0;  //!< per sweep
    double sim_ops = 0;     //!< per sweep
    double rot_keys = 0;
    double evk_mb = 0;
    bts::WorkspaceStats ws{};
    double overhead_share = 0;
};

/** ckks.boot.rot_keys and ckks.evk_mb of @p c. */
void key_sizes(const Crypto& c, LayerExtras& x);

/**
 * Every per-layer metric into @p out.per_layer, zero where untouched:
 * the trace's self ms and call counts per layer divided by @p jobs,
 * bootstrap stage times children included, trace.dropped_events and
 * trace.unmapped_ms, then @p x.
 */
void put_layers(const LayerTotals& totals, double jobs, const LayerExtras& x,
                Outcome& out);

/** Every category the traced runs enable: all but the workspace pool,
 *  whose per-buffer instants would dwarf everything else. */
bts::u32 traced_categories();

} // namespace perfbench
