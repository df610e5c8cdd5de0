#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "runtime/analysis/diagnostic.h"
#include "runtime/graph.h"
#include "runtime/graph_workloads.h"

namespace bts::runtime {
namespace {

GraphTraits
small_traits()
{
    GraphTraits t;
    t.max_level = 6;
    t.bootstrap_out_level = 4;
    t.delta = 1099511627776.0; // 2^40
    return t;
}

TEST(Graph, InfersLevelsAndScales)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value a = g.input(6, t.delta);
    const Value b = g.input(6, t.delta);

    const Value prod = g.hmult(a, b);
    EXPECT_EQ(g.value(prod.id).level, 6);
    EXPECT_DOUBLE_EQ(g.value(prod.id).scale, t.delta * t.delta);

    const Value res = g.hrescale(prod);
    EXPECT_EQ(g.value(res.id).level, 5);
    EXPECT_DOUBLE_EQ(g.value(res.id).scale, t.delta);

    const Value rot = g.hrot(res, 3);
    EXPECT_EQ(g.value(rot.id).level, 5);
    EXPECT_DOUBLE_EQ(g.value(rot.id).scale, t.delta);

    const Value sum = g.hadd(res, rot);
    EXPECT_EQ(g.value(sum.id).level, 5);

    const Value cm = g.cmult(sum, 0.5);
    EXPECT_DOUBLE_EQ(g.value(cm.id).scale, t.delta * t.delta);

    g.mark_output(cm);
    EXPECT_EQ(g.outputs().size(), 1u);
    EXPECT_EQ(g.num_nodes(), 5u);
}

TEST(Graph, UnequalLevelsAlignToLower)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value hi = g.input(6, t.delta);
    const Value lo = g.input(3, t.delta);
    EXPECT_EQ(g.value(g.hmult(hi, lo).id).level, 3);
    EXPECT_EQ(g.value(g.hadd(hi, lo).id).level, 3);
}

TEST(Graph, RescaleUnderflowThrows)
{
    // The graph-level image of TraceBuilder's level-underflow guard.
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value a = g.input(0, t.delta);
    EXPECT_THROW(g.hrescale(a), std::invalid_argument);
}

TEST(Graph, ModRaiseRequiresLevelZeroBootstrapDoesNot)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value fresh = g.input(6, t.delta);
    EXPECT_THROW(g.mod_raise(fresh), std::invalid_argument);
    // Bootstrap accepts any level: the refresh discards what remains,
    // so application graphs can refresh the moment they run short.
    const Value early = g.bootstrap(fresh);
    EXPECT_EQ(g.value(early.id).level, t.bootstrap_out_level);

    const Value dead = g.input(0, t.delta);
    EXPECT_EQ(g.value(g.mod_raise(dead).id).level, t.max_level);
    const Value dead2 = g.input(0, t.delta);
    const Value boot = g.bootstrap(dead2);
    EXPECT_EQ(g.value(boot.id).level, t.bootstrap_out_level);
    EXPECT_DOUBLE_EQ(g.value(boot.id).scale, t.delta);
    EXPECT_TRUE(g.uses_bootstrap());
}

TEST(Graph, HSubMirrorsHAddRules)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value a = g.input(6, t.delta);
    const Value b = g.input(3, t.delta);
    const Value d = g.hsub(a, b);
    EXPECT_EQ(g.value(d.id).level, 3);
    EXPECT_DOUBLE_EQ(g.value(d.id).scale, t.delta);
    const Value off = g.input(6, t.delta * 1.01);
    EXPECT_THROW(g.hsub(a, off), std::invalid_argument);
}

TEST(Graph, PlaintextRules)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value ct = g.input(4, t.delta);
    const Value pt_low = g.plain_input(3, t.delta);
    const Value pt_ok = g.plain_input(6, t.delta);

    // A plaintext below the ciphertext's level cannot prefix-cover it.
    EXPECT_THROW(g.pmult(ct, pt_low), std::invalid_argument);
    EXPECT_THROW(g.padd(ct, pt_low), std::invalid_argument);
    const Value prod = g.pmult(ct, pt_ok);
    EXPECT_EQ(g.value(prod.id).level, 4);
    EXPECT_DOUBLE_EQ(g.value(prod.id).scale, t.delta * t.delta);

    // Operand-kind confusion fails loudly.
    EXPECT_THROW(g.pmult(ct, ct), std::invalid_argument);
    EXPECT_THROW(g.hmult(ct, pt_ok), std::invalid_argument);
    EXPECT_THROW(g.mark_output(pt_ok), std::invalid_argument);
}

TEST(Graph, ScaleMismatchedAddThrows)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value a = g.input(4, t.delta);
    const Value b = g.input(4, t.delta * 1.01);
    EXPECT_THROW(g.hadd(a, b), std::invalid_argument);
}

TEST(Graph, UseCountsAndRotations)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    const Value a = g.input(4, t.delta);
    const Value sq = g.hmult(a, a); // double use counts twice
    EXPECT_EQ(g.value(a.id).num_uses, 2);
    g.hrot(sq, 4);
    g.hrot(sq, -2);
    g.hrot(sq, 4);
    EXPECT_EQ(g.required_rotations(), (std::vector<int>{-2, 4}));
    EXPECT_EQ(g.count_kind(OpKind::kHRot), 3);
    g.mark_output(sq);
    EXPECT_EQ(g.value(sq.id).num_uses, 4); // 3 rotations + output mark
    EXPECT_THROW(g.mark_output(sq), std::invalid_argument);
}

TEST(Graph, InputLevelBounds)
{
    const GraphTraits t = small_traits();
    Graph g("t", t);
    EXPECT_THROW(g.input(t.max_level + 1, t.delta),
                 std::invalid_argument);
    EXPECT_THROW(g.input(-1, t.delta), std::invalid_argument);
    EXPECT_THROW(g.input(3, 0.0), std::invalid_argument);
}

TEST(Graph, OpNamesExhaustiveAndUnique)
{
    std::set<std::string> names;
    for (int i = 0; i < kNumOpKinds; ++i) {
        const char* name = op_name(static_cast<OpKind>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate op name " << name;
    }
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumOpKinds));
    // A value outside the enumerator range must fail loudly.
    EXPECT_THROW(op_name(static_cast<OpKind>(kNumOpKinds)),
                 std::logic_error);
    EXPECT_THROW(op_needs_evk(static_cast<OpKind>(kNumOpKinds)),
                 std::logic_error);
}

TEST(Graph, OpTableRowsDescribeTheirKind)
{
    // The table replaces the exhaustive per-kind switches: row i must
    // describe kind i, every builder spelling must be unique, and the
    // four fused kinds (and only they) name their primitive parts.
    std::set<std::string> builder_names;
    int fused = 0;
    for (int i = 0; i < kNumOpKinds; ++i) {
        const OpKind kind = static_cast<OpKind>(i);
        const OpInfo& op = op_info(kind);
        EXPECT_EQ(op.kind, kind) << "row " << i;
        EXPECT_STREQ(op.name, op_name(kind));
        ASSERT_NE(op.builder_name, nullptr);
        EXPECT_TRUE(builder_names.insert(op.builder_name).second)
            << "duplicate builder spelling " << op.builder_name;
        EXPECT_GE(op.ciphers, 1) << op.name;
        EXPECT_LE(op.arity(), 2) << op.name;
        EXPECT_TRUE(op.plain_slot == -1 || op.plain_slot == 1) << op.name;
        if (op.parts) {
            ++fused;
            EXPECT_TRUE(op.composite) << op.name;
            EXPECT_FALSE(op_is_composite(op.parts->first)) << op.name;
            EXPECT_FALSE(op_is_composite(op.parts->second)) << op.name;
        }
    }
    EXPECT_EQ(fused, 4);
    EXPECT_THROW(op_info(static_cast<OpKind>(kNumOpKinds)),
                 std::logic_error);
}

TEST(Graph, AppendRejectsSignatureViolationsWithoutSideEffects)
{
    // The validating append behind every builder method and the pass
    // replay: a node that breaks its op-table signature is rejected
    // before anything is counted.
    const GraphTraits t = small_traits();
    Graph g("append", t);
    const Value x = g.input(4, t.delta);
    const Value p = g.plain_input(4, t.delta);
    const auto rejected_rule = [&](Node n) -> std::string {
        try {
            g.append(std::move(n));
        } catch (const analysis::VerifyError& e) {
            return e.diagnostics().at(0).rule;
        }
        return "accepted";
    };
    Node one_operand_add;
    one_operand_add.kind = OpKind::kHAdd;
    one_operand_add.inputs = {x.id};
    EXPECT_EQ(rejected_rule(one_operand_add), "structure-arity");
    Node cipher_in_plain_slot;
    cipher_in_plain_slot.kind = OpKind::kPMult;
    cipher_in_plain_slot.inputs = {x.id, x.id};
    EXPECT_EQ(rejected_rule(cipher_in_plain_slot), "structure-arity");
    Node empty_group;
    empty_group.kind = OpKind::kHRotHoisted;
    empty_group.inputs = {x.id};
    EXPECT_EQ(rejected_rule(empty_group), "structure-arity");
    EXPECT_EQ(g.num_nodes(), 0u);
    EXPECT_EQ(g.num_values(), 2u);
    EXPECT_EQ(g.value(x.id).num_uses, 0);
    EXPECT_EQ(g.value(p.id).num_uses, 0);

    Node pmult;
    pmult.kind = OpKind::kPMult;
    pmult.inputs = {x.id, p.id};
    pmult.output = 99; // output fields are assigned by append
    const Value v = g.append(pmult);
    EXPECT_EQ(v.id, 2);
    EXPECT_EQ(g.node(0).outputs, std::vector<int>{2});
    EXPECT_EQ(g.value(x.id).num_uses, 1);
    EXPECT_EQ(g.value(p.id).num_uses, 1);
}

TEST(Graph, EvkClassification)
{
    EXPECT_TRUE(op_needs_evk(OpKind::kHMult));
    EXPECT_TRUE(op_needs_evk(OpKind::kHRot));
    EXPECT_TRUE(op_needs_evk(OpKind::kConj));
    EXPECT_TRUE(op_needs_evk(OpKind::kBootstrap));
    EXPECT_FALSE(op_needs_evk(OpKind::kPMult));
    EXPECT_FALSE(op_needs_evk(OpKind::kHSub));
    EXPECT_FALSE(op_needs_evk(OpKind::kHRescale));
    EXPECT_FALSE(op_needs_evk(OpKind::kModRaise));
}

TEST(GraphWorkloads, TmultShape)
{
    const auto inst = hw::ins2();
    // Default pipeline: every HMult + HRescale pair fuses.
    const Graph g = tmult_graph(inst);
    EXPECT_EQ(g.count_kind(OpKind::kBootstrap), 1);
    EXPECT_EQ(g.count_kind(OpKind::kHMultRescale), inst.usable_levels());
    EXPECT_EQ(g.count_kind(OpKind::kHMult), 0);
    EXPECT_EQ(g.count_kind(OpKind::kHRescale), 0);
    ASSERT_EQ(g.outputs().size(), 1u);
    EXPECT_EQ(g.value(g.outputs()[0]).level, 0);

    // Pass-off keeps the hand-written primitive pairs.
    const Graph raw = tmult_graph(inst, passes::PassOptions::none());
    EXPECT_EQ(raw.count_kind(OpKind::kHMult), inst.usable_levels());
    EXPECT_EQ(raw.count_kind(OpKind::kHRescale), inst.usable_levels());
    ASSERT_EQ(raw.outputs().size(), 1u);
    EXPECT_EQ(raw.value(raw.outputs()[0]).level, 0);
}

TEST(GraphWorkloads, PolyEvalConsumesDegreeLevels)
{
    const GraphTraits t = small_traits();
    const Graph g = poly_eval_graph(t, 5, {1.0, 2.0, 3.0, 4.0});
    ASSERT_EQ(g.outputs().size(), 1u);
    EXPECT_EQ(g.value(g.outputs()[0]).level, 5 - 3);
    EXPECT_THROW(poly_eval_graph(t, 2, {1.0, 2.0, 3.0, 4.0}),
                 std::invalid_argument);
}

} // namespace
} // namespace bts::runtime
