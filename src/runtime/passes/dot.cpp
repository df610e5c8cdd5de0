#include "runtime/passes/dot.h"

#include "runtime/analysis/dot.h"

namespace bts::runtime::passes {

namespace {

void
append_constant(std::ostream& os, const char* name, Complex c)
{
    os << "\\n" << name << "=" << c.real();
    if (c.imag() != 0.0) os << (c.imag() < 0 ? "" : "+") << c.imag() << "i";
}

} // namespace

std::string
to_dot(const Graph& g)
{
    analysis::DotView view;
    view.input_label = [&](std::ostream& label, int id) {
        const ValueInfo& info = g.value(id);
        label << "\\nL" << info.level << " s=" << info.scale;
    };
    view.node_label = [&](std::ostream& label, std::size_t i) {
        const Node& n = g.node(i);
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
    };
    view.node_fill = [&](std::size_t i) -> const char* {
        return op_is_composite(g.node(i).kind) ? "lightblue" : nullptr;
    };
    return analysis::render_dot(g, view);
}

} // namespace bts::runtime::passes
