#include "runtime/lowering.h"

#include "common/check.h"
#include "sim/bootstrap_plan.h"

namespace bts::runtime {

sim::HeOpKind
to_sim_kind(OpKind kind)
{
    switch (kind) {
    case OpKind::kHMult: return sim::HeOpKind::kHMult;
    case OpKind::kHRot: return sim::HeOpKind::kHRot;
    case OpKind::kConj: return sim::HeOpKind::kConj;
    case OpKind::kPMult: return sim::HeOpKind::kPMult;
    case OpKind::kPAdd: return sim::HeOpKind::kPAdd;
    case OpKind::kHAdd: return sim::HeOpKind::kHAdd;
    case OpKind::kHSub: return sim::HeOpKind::kHAdd; // add-cost twin
    case OpKind::kHRescale: return sim::HeOpKind::kHRescale;
    case OpKind::kCMult: return sim::HeOpKind::kCMult;
    case OpKind::kCAdd: return sim::HeOpKind::kCAdd;
    case OpKind::kModRaise: return sim::HeOpKind::kModRaise;
    case OpKind::kBootstrap:
    case OpKind::kHRotHoisted:
    case OpKind::kHMultRescale:
    case OpKind::kPMultRescale:
    case OpKind::kCMultRescale:
    case OpKind::kCMultAdd:
        fatal(std::string(op_name(kind)) +
              " has no primitive sim image; lower_to_trace expands it");
    }
    panic("unknown OpKind");
}

namespace {

/** Ops in one sim::append_bootstrap expansion on @p inst, counted by
 *  expanding the plan into a scratch builder, so the plan stays the one
 *  description of a bootstrap. */
std::size_t
bootstrap_op_count(const hw::CkksInstance& inst)
{
    sim::TraceBuilder scratch("bootstrap");
    sim::append_bootstrap(scratch, inst, scratch.fresh_id());
    return scratch.trace().ops.size();
}

/** Ops lower_to_trace emits for @p n: the bootstrap expansion
 *  (@p boot_ops), one HRot per hoisted amount, both parts of a fused
 *  kind, or the one primitive. */
std::size_t
node_op_count(const Node& n, std::size_t boot_ops)
{
    if (n.kind == OpKind::kBootstrap) return boot_ops;
    if (n.kind == OpKind::kHRotHoisted) return n.amounts.size();
    return op_info(n.kind).parts ? 2 : 1;
}

} // namespace

sim::Trace
lower_to_trace(const Graph& g, const hw::CkksInstance& inst,
               std::vector<std::size_t>* node_end)
{
    // Level-geometry compatibility: every value must fit the instance's
    // chain, and composite/raise ops must target ITS top level.
    for (std::size_t id = 0; id < g.num_values(); ++id) {
        const ValueInfo& info = g.value(static_cast<int>(id));
        BTS_CHECK(info.level <= inst.max_level,
                  g.name() << ": value level " << info.level
                           << " exceeds instance max_level "
                           << inst.max_level);
    }
    if (g.uses_bootstrap() || g.count_kind(OpKind::kModRaise) > 0) {
        BTS_CHECK(g.traits().max_level == inst.max_level,
                  g.name() << ": graph raises to level "
                           << g.traits().max_level << ", instance has L = "
                           << inst.max_level);
    }
    if (g.uses_bootstrap()) {
        BTS_CHECK(g.traits().bootstrap_out_level == inst.usable_levels(),
                  g.name() << ": graph bootstrap level "
                           << g.traits().bootstrap_out_level
                           << " != instance usable levels "
                           << inst.usable_levels());
    }

    sim::TraceBuilder b(g.name());
    // Object ids assigned at first use (inputs) / production (outputs):
    // the id stream of a TraceBuilder program that calls fresh_id() in
    // the same op order.
    std::vector<int> object(g.num_values(), -1);
    const auto obj = [&](int value_id) {
        if (object[value_id] < 0) object[value_id] = b.fresh_id();
        return object[value_id];
    };

    const auto lower_node = [&](const Node& n) {
        if (n.kind == OpKind::kBootstrap) {
            object[n.output] =
                sim::append_bootstrap(b, inst, obj(n.inputs[0]));
            return;
        }
        // Pass-introduced composites expand back to the primitive ops
        // they fused, keeping the simulator trace contract unchanged:
        // the sim models each primitive's cost, and fusion/hoisting are
        // dataflow restructurings, not new hardware ops.
        if (n.kind == OpKind::kHRotHoisted) {
            const int src = obj(n.inputs[0]);
            for (std::size_t k = 0; k < n.amounts.size(); ++k) {
                object[n.outputs[k]] =
                    b.add(sim::HeOpKind::kHRot, g.value(n.outputs[k]).level,
                          {src}, n.amounts[k]);
            }
            return;
        }
        if (const std::optional<OpParts>& parts = op_info(n.kind).parts) {
            // Both primitives execute at the pre-drop level: output
            // level + 1 when the second part is the rescale (CMult+CAdd
            // is level-preserving).
            const int mid_level =
                g.value(n.output).level +
                (parts->second == OpKind::kHRescale ? 1 : 0);
            sim::OpInputs inputs;
            for (const int in : n.inputs) inputs.push_back(obj(in));
            const int mid =
                b.add(to_sim_kind(parts->first), mid_level, inputs, 0);
            object[n.output] =
                b.add(to_sim_kind(parts->second), mid_level, {mid}, 0);
            return;
        }
        // The level an op *executes at*: HRescale still holds the
        // about-to-drop prime, ModRaise already runs on the full chain.
        const int level = n.kind == OpKind::kHRescale
                              ? g.value(n.inputs[0]).level
                              : g.value(n.output).level;
        sim::OpInputs inputs;
        for (const int in : n.inputs) inputs.push_back(obj(in));
        object[n.output] =
            b.add(to_sim_kind(n.kind), level, inputs, n.rot_amount);
    };

    // Size the trace once: a paper-scale trace holds hundreds of
    // thousands of ops, and growing it by doubling would copy each op
    // and hold the old and the new buffer at once.
    const std::size_t boot_ops =
        g.uses_bootstrap() ? bootstrap_op_count(inst) : 0;
    std::size_t total_ops = 0;
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        total_ops += node_op_count(g.node(i), boot_ops);
    }
    std::vector<sim::HeOp>& ops = b.trace().ops;
    ops.reserve(total_ops);

    if (node_end != nullptr) {
        node_end->clear();
        node_end->reserve(g.num_nodes());
    }
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        const std::size_t end = ops.size() + node_op_count(n, boot_ops);
        lower_node(n);
        BTS_ASSERT(ops.size() == end,
                   g.name() << ": node " << i << " (" << op_name(n.kind)
                            << ") emitted a different op count than "
                               "the trace was sized for");
        if (node_end != nullptr) node_end->push_back(end);
    }
    return std::move(b.trace());
}

} // namespace bts::runtime
