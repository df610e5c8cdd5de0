/**
 * @file
 * Graphviz DOT dumper for runtime Graphs — render a workload's
 * dataflow before/after the pass pipeline (`dot -Tsvg`). Inputs are
 * boxes (plaintexts dashed), nodes are ellipses labelled with kind +
 * level/scale metadata, composites are filled, and marked outputs get
 * a doubled border.
 */
#pragma once

#include <string>

#include "runtime/graph.h"

namespace bts::runtime::passes {

/** @return a complete Graphviz digraph for @p g. */
std::string to_dot(const Graph& g);

} // namespace bts::runtime::passes
