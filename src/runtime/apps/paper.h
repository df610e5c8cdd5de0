/**
 * @file
 * The builtin paper-scale graphs: the circuits the simulated figures
 * price (Figs. 6, 7, 9, Tables 1, 5, 6) and the graphs bts_lint,
 * the analyzer suites and the metadata fixtures sweep. They are the
 * runtime graphs themselves, lowered with lower_to_trace, so the
 * simulator and the functional Executor run one description of each
 * circuit.
 *
 *   "tmult"              tmult_graph (Eq. 8's numerator)
 *   "dot_product"        dot_product_graph, 2^8-slot reduction
 *   "poly_eval"          poly_eval_graph, degree 3
 *   "bootstrap_refresh"  bootstrap_refresh_graph
 *   "helr"               build_helr(HelrConfig::paper())
 *   "resnet"             build_resnet(ResnetConfig::paper())
 *   "sort"               build_sort(SortConfig::paper())
 *
 * The first four are graph_workloads.h's circuits, the last three
 * the applications of runtime/apps/. With optimize = false a graph is
 * the raw, builder-authored form, which the figures lower; the pass
 * pipeline's optimized form lowers to the same op histogram. The
 * lowered traces are pinned by golden fixtures in
 * tests/runtime/test_apps_pin.cpp (see docs/APPLICATIONS.md).
 */
#pragma once

#include <string_view>
#include <vector>

#include "hwparams/instance.h"
#include "runtime/graph.h"
#include "sim/op_trace.h"

namespace bts::runtime::apps {

/** The names above, in that order (bts_lint's). */
std::vector<std::string_view> paper_graph_names();

/** The paper-scale graph @p name (one of the names above) built for
 *  @p inst, raw or through the pass pipeline; throws
 *  std::invalid_argument on an unknown name. */
Graph paper_graph(std::string_view name, const hw::CkksInstance& inst,
                  bool optimize = false);

/** lower_to_trace(paper_graph(name, inst), inst). */
sim::Trace paper_trace(std::string_view name, const hw::CkksInstance& inst);

} // namespace bts::runtime::apps
