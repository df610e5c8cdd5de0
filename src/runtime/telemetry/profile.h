/**
 * @file
 * Predicted-vs-measured cost closure: aggregate a captured trace's
 * Executor node spans by op kind and compare against the static
 * ResourceSummary prediction (runtime/analysis/resource.h).
 *
 * Each kNode span carries the node's statically predicted cost (the
 * Executor tags spans from the ResourceSummary GraphServer caches at
 * register_graph time and hands each job), so a single traced run
 * yields the table the paper's methodology implies: per op kind, how
 * many ran, how long they measured, what the model predicted, and the
 * ratio.
 * The predicted column is a *relative* cost on the serving
 * pseudo-instance — the accelerator model's seconds, not host
 * wall-clock — so the interesting quantity is the per-kind share
 * drift, not the absolute ratio (bts_profile prints both).
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "runtime/analysis/resource.h"
#include "runtime/graph.h"
#include "runtime/telemetry/trace.h"

namespace bts::runtime::telemetry {

/** One op kind's aggregated row. */
struct OpKindProfile
{
    std::string op;        //!< runtime::op_name of the node kind
    std::size_t count = 0; //!< node spans captured
    double measured_s = 0; //!< summed span durations (host seconds)
    double predicted_s = 0; //!< summed static cost tags (model seconds)
};

/** The per-run closure report. */
struct ProfileReport
{
    std::vector<OpKindProfile> ops; //!< sorted by measured_s, desc
    double measured_total_s = 0;
    double predicted_total_s = 0;
    u64 dropped_events = 0; //!< nonzero = the table undercounts
};

/** Aggregate the kNode spans of @p trace by span name (= op kind). */
ProfileReport profile_from_trace(const Trace& trace);

/** The static side of the closure: per-op-kind predicted cost summed
 *  from the summary's per-node slices — what a traced single run's
 *  predicted_s column must reproduce (tested to tolerance). */
std::map<std::string, double>
predicted_by_kind(const Graph& g,
                  const analysis::ResourceSummary& summary);

/** Human-readable predicted/actual table (bts_profile default). */
std::string render_profile_text(const ProfileReport& r);

/** The same table as a JSON object. */
std::string render_profile_json(const ProfileReport& r);

} // namespace bts::runtime::telemetry
