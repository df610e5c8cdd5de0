/**
 * @file
 * Simulator graph backend: deterministic lowering of a runtime::Graph
 * to a sim::Trace, so the BtsSimulator prices the very circuits the
 * functional Executor runs.
 *
 * The lowering is deterministic and structure-preserving:
 *  - trace object ids are assigned from value ids in first-use order
 *    (graph inputs at first reference, node outputs at production),
 *    the order a TraceBuilder program calling fresh_id() per op would
 *    use;
 *  - op levels come from the graph's value metadata (HRescale executes
 *    at its input's level, ModRaise at the raised level);
 *  - a kBootstrap node expands to the full ModRaise / CtS / EvalMod /
 *    StC plan via sim::append_bootstrap, with every expanded op
 *    tagged in_bootstrap and counted in Trace::bootstrap_count;
 *  - the trace is allocated once, at its exact size, summed per node
 *    before the first op is emitted (a bootstrap's count by expanding
 *    the plan once); each node is checked to emit exactly its count.
 *
 * The lowered traces of the paper graphs (tmult, HELR, ResNet,
 * sorting, bootstrap refresh) are pinned by golden fixtures in
 * tests/runtime/test_apps_pin.cpp: op histogram, op and bootstrap
 * counts, simulated total and a digest of the whole op stream.
 */
#pragma once

#include <vector>

#include "hwparams/instance.h"
#include "runtime/graph.h"
#include "sim/op_trace.h"

namespace bts::runtime {

/**
 * Lower @p g to a schedulable trace for @p inst. The graph's level
 * geometry must match the instance (a graph built for a different
 * modulus chain would produce nonsense cost-model lookups).
 *
 * If @p node_end is given it receives one entry per graph node: the
 * trace index one past the last op that node emitted, so node i owns
 * ops [node_end[i-1], node_end[i]) (the resource analyzer's per-node
 * attribution).
 */
sim::Trace lower_to_trace(const Graph& g, const hw::CkksInstance& inst,
                          std::vector<std::size_t>* node_end = nullptr);

/** The primitive sim kind for a graph op (fails on kBootstrap, which
 *  has no single-op image — it lowers as a composite expansion). */
sim::HeOpKind to_sim_kind(OpKind kind);

} // namespace bts::runtime
