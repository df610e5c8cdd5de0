#include "runtime/analysis/dot.h"

#include <sstream>
#include <vector>

namespace bts::runtime::analysis {

std::string
render_dot(const Graph& g, const DotView& view)
{
    const auto in_range = [&](int id) {
        return id >= 0 && id < static_cast<int>(g.num_values());
    };
    std::vector<char> is_out(g.num_values(), 0);
    for (const int id : g.outputs()) {
        if (in_range(id)) is_out[id] = 1;
    }

    std::ostringstream os;
    os << "digraph \"" << g.name() << "\" {\n"
       << "  rankdir=TB;\n"
       << "  node [fontsize=10];\n";
    for (const int id : g.input_ids()) {
        const ValueInfo& info = g.value(id);
        std::ostringstream label;
        label << (info.is_plain ? "pt" : "ct") << " in v" << id;
        view.input_label(label, id);
        os << "  v" << id << " [shape=box"
           << (info.is_plain ? ", style=dashed" : "") << ", label=\""
           << label.str() << "\""
           << (is_out[id] ? ", peripheries=2" : "") << "];\n";
    }
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        std::ostringstream label;
        label << "#" << i << " " << op_name(n.kind);
        if (n.kind == OpKind::kHRot) label << " r=" << n.rot_amount;
        view.node_label(label, i);
        bool marks = false;
        for (const int o : n.outputs) {
            marks = marks || (in_range(o) && is_out[o]);
        }
        os << "  n" << i << " [label=\"" << label.str() << "\"";
        if (const char* fill = view.node_fill(i)) {
            os << ", style=filled, fillcolor=" << fill;
        }
        os << (marks ? ", peripheries=2" : "") << "];\n";
    }
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        for (const int in : g.node(i).inputs) {
            if (!in_range(in)) continue;
            const ValueInfo& info = g.value(in);
            if (info.is_input) {
                os << "  v" << in;
            } else {
                os << "  n" << info.producer;
            }
            os << " -> n" << i << " [label=\"v" << in << "\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace bts::runtime::analysis
