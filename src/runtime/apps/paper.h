/**
 * @file
 * The circuits the simulated figures price (Figs. 6, 7, 9, Tables
 * 1, 5, 6): the runtime graphs themselves, lowered with
 * lower_to_trace, so the simulator and the functional Executor run
 * one description of each circuit.
 *
 *   "tmult"              tmult_graph, unoptimized (Eq. 8's numerator)
 *   "helr"               build_helr(HelrConfig::paper()), raw
 *   "resnet"             build_resnet(ResnetConfig::paper()), raw
 *   "sort"               build_sort(SortConfig::paper()), raw
 *   "bootstrap_refresh"  bootstrap_refresh_graph, unoptimized
 *
 * "Raw" means optimize = false, the builder-authored form; the pass
 * pipeline's optimized form lowers to the same op histogram. The
 * lowered traces are pinned by golden fixtures in
 * tests/runtime/test_apps_pin.cpp (see docs/APPLICATIONS.md).
 */
#pragma once

#include <string_view>

#include "hwparams/instance.h"
#include "runtime/graph.h"
#include "sim/op_trace.h"

namespace bts::runtime::apps {

/** The paper-scale graph @p name (one of the names above) built for
 *  @p inst; throws std::invalid_argument on an unknown name. */
Graph paper_graph(std::string_view name, const hw::CkksInstance& inst);

/** lower_to_trace(paper_graph(name, inst), inst). */
sim::Trace paper_trace(std::string_view name, const hw::CkksInstance& inst);

} // namespace bts::runtime::apps
