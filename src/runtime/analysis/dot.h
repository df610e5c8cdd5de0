/**
 * @file
 * The Graphviz DOT skeleton every rendering of a runtime Graph shares
 * (`dot -Tsvg`): inputs are boxes (plaintexts dashed), nodes are
 * ellipses, marked outputs get a doubled border, and each edge runs
 * producer -> consumer labelled with the value it carries. A view
 * supplies only what differs: the labels' tails and the node fill.
 */
#pragma once

#include <functional>
#include <ostream>
#include <string>

#include "runtime/graph.h"

namespace bts::runtime::analysis {

/** What one rendering adds to the skeleton. */
struct DotView
{
    /** Appends to input value `id`'s label, after "ct in v<id>". */
    std::function<void(std::ostream& label, int id)> input_label;
    /** Appends to node `i`'s label, after "#<i> <op>[ r=<amount>]". */
    std::function<void(std::ostream& label, std::size_t i)> node_label;
    /** Node `i`'s fill colour; null leaves it unfilled. */
    std::function<const char*(std::size_t i)> node_fill;
};

/** @return a complete Graphviz digraph for @p g. Operand and output ids
 *  out of range draw nothing, so a corrupted graph still renders. */
std::string render_dot(const Graph& g, const DotView& view);

} // namespace bts::runtime::analysis
