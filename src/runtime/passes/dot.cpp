#include "runtime/passes/dot.h"

#include <sstream>

namespace bts::runtime::passes {

namespace {

void
append_constant(std::ostringstream& os, const char* name, Complex c)
{
    os << "\\n" << name << "=" << c.real();
    if (c.imag() != 0.0) os << (c.imag() < 0 ? "" : "+") << c.imag() << "i";
}

} // namespace

std::string
to_dot(const Graph& g)
{
    std::ostringstream os;
    os << "digraph \"" << g.name() << "\" {\n"
       << "  rankdir=TB;\n"
       << "  node [fontsize=10];\n";

    std::vector<char> is_out(g.num_values(), 0);
    for (const int id : g.outputs()) is_out[id] = 1;

    // Input values: boxes (plaintexts dashed).
    for (const int id : g.input_ids()) {
        const ValueInfo& info = g.value(id);
        os << "  v" << id << " [shape=box"
           << (info.is_plain ? ", style=dashed" : "") << ", label=\""
           << (info.is_plain ? "pt" : "ct") << " in v" << id << "\\nL"
           << info.level << " s=" << info.scale << "\""
           << (is_out[id] ? ", peripheries=2" : "") << "];\n";
    }

    // Nodes: ellipses labelled with kind + result metadata.
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        std::ostringstream label;
        label << "#" << i << " " << op_name(n.kind);
        if (n.kind == OpKind::kHRot) label << " r=" << n.rot_amount;
        if (n.kind == OpKind::kHRotHoisted) {
            label << " r={";
            for (std::size_t k = 0; k < n.amounts.size(); ++k) {
                label << (k ? "," : "") << n.amounts[k];
            }
            label << "}";
        }
        if (n.kind == OpKind::kCMult || n.kind == OpKind::kCAdd ||
            n.kind == OpKind::kCMultRescale ||
            n.kind == OpKind::kCMultAdd) {
            append_constant(label, "c", n.constant);
        }
        if (n.kind == OpKind::kCMultAdd) {
            append_constant(label, "c2", n.constant2);
        }
        const ValueInfo& out = g.value(n.output);
        label << "\\nL" << out.level << " s=" << out.scale;

        bool marks_output = false;
        for (const int o : n.outputs) marks_output = marks_output || is_out[o];
        os << "  n" << i << " [label=\"" << label.str() << "\""
           << (op_is_composite(n.kind) ? ", style=filled, fillcolor=lightblue"
                                       : "")
           << (marks_output ? ", peripheries=2" : "") << "];\n";
    }

    // Edges: producer -> consumer, labelled with the value id carried.
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        for (const int in : n.inputs) {
            const ValueInfo& info = g.value(in);
            if (info.is_input) {
                os << "  v" << in << " -> n" << i;
            } else {
                os << "  n" << info.producer << " -> n" << i;
            }
            os << " [label=\"v" << in << "\"];\n";
        }
    }

    os << "}\n";
    return os.str();
}

} // namespace bts::runtime::passes
