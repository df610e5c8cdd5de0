/**
 * @file
 * Static resource analyzer: the performance-model twin of the
 * correctness verifier (verifier.h). Where analyze() asks "is this
 * graph safe to run", analyze_resources() asks "what will it cost" —
 * per graph x Table-4 instance, before anything executes:
 *
 *  (a) exact op counts: the graph is lowered with lower_to_trace
 *      (composites to primitives, kBootstrap to the full
 *      ModRaise/CtS/EvalMod/StC plan of sim::append_bootstrap) and
 *      each op is attributed to the node that emitted it, so the
 *      per-HeOpKind counts ARE the lowered sim::Trace histogram;
 *  (b) cost totals: each lowered primitive is priced by sim::CostModel
 *      at its execution level (calibration by construction: the
 *      analyzer reuses the very cost table the simulator schedules
 *      with), accumulating NTT / BConv / element-wise busy time, evk
 *      stream bytes and end-to-end compute seconds;
 *  (c) liveness: a register-allocation-style interval analysis over
 *      the serial schedule, mirroring Executor::run_serial's release
 *      discipline op for op — predicted peak live ciphertexts and
 *      bytes equal the measured ExecStats peaks on serial runs, zero
 *      tolerance (ciphertext bytes(level) = 2 (level+1) N 8);
 *  (d) the static parallelism profile: cost-weighted critical path vs
 *      total work (the lane-scaling bound) and the dependence width
 *      (maximum antichain — no schedule can ever have more nodes in
 *      flight).
 *
 * This is BTS's own methodology turned into a library: the paper picks
 * dnum/level schedules by predicting op counts, working sets and key
 * traffic per instance (Table 4 / Fig. 1) before running anything.
 * GraphServer::register_graph caches a ResourceSummary per graph for
 * cost-aware admission, bts_lint --cost/--schedule renders the
 * reports, and check_resources() turns budget violations into the
 * RS- rule family of PR-8-style diagnostics.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "hwparams/instance.h"
#include "runtime/analysis/diagnostic.h"
#include "runtime/graph.h"
#include "sim/cost_model.h"
#include "sim/hw_config.h"
#include "sim/op_trace.h"

namespace bts::runtime::analysis {

/** Per-node slice of the summary — what bts_lint's --schedule table
 *  and the cost-annotated DOT render. */
struct NodeResource
{
    double cost_s = 0;      //!< summed compute_s of the node's lowered ops
    double evk_bytes = 0;   //!< evk stream the node pulls
    std::size_t live_after = 0;  //!< live ciphertexts after the node
                                 //!< finished (serial schedule)
    double live_bytes_after = 0; //!< same, in bytes
    double critical_start_s = 0; //!< earliest possible start time
};

/** Everything analyze_resources() derives for one (graph, instance). */
struct ResourceSummary
{
    // ----- (a) exact op counts, post-expansion -----
    /** Primitive op count per sim::HeOpKind (index = enum value);
     *  matches kind_histogram(lower_to_trace(g, inst)) exactly. */
    std::array<std::size_t, sim::kHeOpKindCount> op_counts{};
    std::size_t total_ops = 0;       //!< sum of op_counts
    int bootstrap_count = 0;         //!< kBootstrap nodes lowered
    std::size_t evk_ops = 0;         //!< evk-bearing primitives

    // ----- (b) calibrated cost totals -----
    double total_work_s = 0;   //!< sum of per-op compute_s
    double ntt_s = 0;          //!< NTTU busy time
    double bconv_s = 0;        //!< MMAU busy time
    double elem_s = 0;         //!< element-wise unit busy time
    double evk_bytes = 0;      //!< total evaluation-key stream
    double keyswitch_work_s = 0; //!< compute_s of evk-bearing ops only

    // ----- (c) liveness / peak memory (serial schedule) -----
    std::size_t peak_live_values = 0; //!< max resident ciphertexts
    double peak_live_bytes = 0;       //!< same in bytes (2 (l+1) N 8)
    /** Largest evk working set any single node needs resident at once:
     *  evk_bytes(level) per distinct amount of a hoisted-rotation
     *  group, one key for plain HMult/HRot/Conj. */
    double evk_working_set_bytes = 0;

    // ----- (d) static parallelism profile -----
    double critical_path_s = 0; //!< longest cost-weighted dep chain
    /** total_work_s / critical_path_s — the asymptotic lane-scaling
     *  bound (Brent); 1.0 for a pure chain. */
    double parallelism = 0;
    /** Maximum antichain of the node dependence DAG (Dilworth): no
     *  schedule can have more nodes in flight. 0 = not computed (graph
     *  larger than the O(n^2) closure cutoff). */
    std::size_t width = 0;

    std::vector<NodeResource> nodes; //!< per graph node, in order
};

/**
 * Run the full resource analysis of @p g on @p inst under @p hw.
 * Inherits lower_to_trace's level-geometry preconditions (value levels
 * within the instance chain; ModRaise/Bootstrap graphs match the
 * instance's L and usable levels) and throws BTS_CHECK-style on
 * violation — an estimate against the wrong instance is worse than no
 * estimate.
 */
ResourceSummary analyze_resources(const Graph& g,
                                  const hw::CkksInstance& inst,
                                  const sim::BtsConfig& hw = {});

/** Resource budgets for check_resources(); 0 disables a rule. */
struct ResourceLimits
{
    double max_peak_live_bytes = 0;      //!< rs-peak-live (error)
    double max_evk_working_set_bytes = 0; //!< rs-evk-working-set (error)
    /** rs-critical-path (warning): flag graphs whose parallelism
     *  (total work / critical path) falls below this — a serving lane
     *  gains nothing from intra-job lanes on such a job. */
    double min_parallelism = 0;
};

/**
 * The RS- rule family: turn resource findings into the same
 * Diagnostic currency the verifier emits. Deliberately NOT part of
 * analyze() — resource rules need an instance and a budget policy,
 * and the builtin graphs must keep linting clean with no options.
 *
 *   rs-peak-live        error    peak live bytes above the budget
 *   rs-evk-working-set  error    one node needs more resident evk
 *                                bytes than the budget
 *   rs-critical-path    warning  parallelism below the floor (the
 *                                graph is a chain; lanes cannot help)
 */
std::vector<Diagnostic> check_resources(const ResourceSummary& summary,
                                        const ResourceLimits& limits);

/** Human-readable cost report (bts_lint --cost). */
std::string render_resource_text(const std::string& graph_name,
                                 const ResourceSummary& s);

/** JSON object with the same content (bts_lint --cost --format=json). */
std::string render_resource_json(const std::string& graph_name,
                                 const ResourceSummary& s);

/** Per-node schedule table: cost, evk bytes, live set after each node
 *  (bts_lint --schedule). */
std::string render_schedule_text(const Graph& g,
                                 const ResourceSummary& s);

/** Graphviz DOT annotated with per-node cost and liveness (the --cost
 *  counterpart of verifier.h's to_annotated_dot). */
std::string to_resource_dot(const Graph& g, const ResourceSummary& s);

} // namespace bts::runtime::analysis
