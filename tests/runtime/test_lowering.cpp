#include <gtest/gtest.h>

#include "runtime/apps/paper.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"
#include "sim/bootstrap_plan.h"
#include "sim/engine.h"

namespace bts::runtime {
namespace {

using sim::HeOpKind;

// The lowered traces of tmult_graph and the paper apps are pinned op
// for op by the golden fixtures in test_apps_pin.cpp.

/** Eq. 8's numerator written directly as a trace: one bootstrap, then
 *  HMult + HRescale down the usable levels. */
sim::Trace
hand_tmult_trace(const hw::CkksInstance& inst)
{
    sim::TraceBuilder b("hand_tmult/" + inst.name);
    int ct = sim::append_bootstrap(b, inst, b.fresh_id());
    const int other = b.fresh_id();
    for (int lvl = inst.usable_levels(); lvl >= 1; --lvl) {
        ct = b.add(HeOpKind::kHMult, lvl, {ct, other});
        ct = b.add(HeOpKind::kHRescale, lvl, {ct});
    }
    return b.trace();
}

class TmultPin : public ::testing::TestWithParam<int>
{
  protected:
    hw::CkksInstance
    inst() const
    {
        return hw::table4_instances()[GetParam()];
    }
};

TEST_P(TmultPin, LoweredTraceMatchesHandWrittenGenerator)
{
    // The graph-API tmult workload must lower to the exact trace the
    // hand-written generator emits — same op-kind histogram, same
    // bootstrap count, and (stronger) op-for-op equality including
    // levels, object ids and tags.
    const auto i = inst();
    const sim::Trace hand = hand_tmult_trace(i);
    const sim::Trace lowered = lower_to_trace(tmult_graph(i), i);

    EXPECT_EQ(sim::kind_histogram(lowered), sim::kind_histogram(hand));
    EXPECT_EQ(lowered.bootstrap_count, hand.bootstrap_count);
    ASSERT_EQ(lowered.ops.size(), hand.ops.size());
    for (std::size_t k = 0; k < hand.ops.size(); ++k) {
        EXPECT_EQ(lowered.ops[k], hand.ops[k]) << "op " << k;
    }
}

TEST_P(TmultPin, SimulatorResultsIdenticalOnRuntimeTrace)
{
    // BtsSimulator consuming the runtime-produced trace reproduces the
    // hand-written trace's results bit for bit.
    const auto i = inst();
    const sim::BtsConfig hw;
    const sim::BtsSimulator sim(hw, i);
    const auto r_hand = sim.run(hand_tmult_trace(i));
    const auto r_rt = sim.run(lower_to_trace(tmult_graph(i), i));
    EXPECT_DOUBLE_EQ(r_rt.total_s, r_hand.total_s);
    EXPECT_DOUBLE_EQ(r_rt.boot_s, r_hand.boot_s);
    EXPECT_DOUBLE_EQ(r_rt.energy_j, r_hand.energy_j);
    EXPECT_DOUBLE_EQ(r_rt.tmult_a_slot_ns, r_hand.tmult_a_slot_ns);
    EXPECT_EQ(r_rt.op_count, r_hand.op_count);
}

INSTANTIATE_TEST_SUITE_P(Table4, TmultPin, ::testing::Values(0, 1, 2));

class TmultLowering : public ::testing::TestWithParam<int>
{
  protected:
    hw::CkksInstance
    inst() const
    {
        return hw::table4_instances()[GetParam()];
    }
};

TEST_P(TmultLowering, UsesAllUsableLevels)
{
    // Eq. 8's numerator: one bootstrap (whose EvalMod holds 30 HMults),
    // then one HMult per usable level.
    const sim::Trace t = apps::paper_trace("tmult", inst());
    int hmults = 0;
    for (const auto& op : t.ops) hmults += op.kind == HeOpKind::kHMult;
    EXPECT_EQ(hmults - 30, inst().usable_levels());
    EXPECT_EQ(t.bootstrap_count, 1);
}

INSTANTIATE_TEST_SUITE_P(Table4, TmultLowering, ::testing::Values(0, 1, 2));

TEST(Lowering, Deterministic)
{
    const auto i = hw::ins1();
    const Graph g = tmult_graph(i);
    const sim::Trace a = lower_to_trace(g, i);
    const sim::Trace b = lower_to_trace(g, i);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t k = 0; k < a.ops.size(); ++k) {
        EXPECT_EQ(a.ops[k], b.ops[k]);
    }
}

TEST(Lowering, NodeEndAttributesEveryOpToItsNode)
{
    // The optimized tmult graph has a Bootstrap node and fused
    // HMult+HRescale nodes: node i owns ops [node_end[i-1], node_end[i]).
    const auto i = hw::ins1();
    const Graph g = tmult_graph(i);
    ASSERT_EQ(g.count_kind(OpKind::kBootstrap), 1);
    ASSERT_GT(g.count_kind(OpKind::kHMultRescale), 0);
    std::vector<std::size_t> node_end;
    const sim::Trace t = lower_to_trace(g, i, &node_end);
    ASSERT_EQ(node_end.size(), g.num_nodes());
    EXPECT_EQ(node_end.back(), t.ops.size());
    std::size_t begin = 0;
    for (std::size_t n = 0; n < g.num_nodes(); ++n) {
        ASSERT_GE(node_end[n], begin);
        const OpKind kind = g.node(n).kind;
        for (std::size_t k = begin; k < node_end[n]; ++k) {
            EXPECT_EQ(t.ops[k].in_bootstrap, kind == OpKind::kBootstrap);
        }
        if (kind == OpKind::kHMultRescale) {
            EXPECT_EQ(node_end[n] - begin, 2u) << "node " << n;
        }
        begin = node_end[n];
    }
}

TEST(Lowering, BootstrapTaggingAndExpansion)
{
    const auto i = hw::ins2();
    const Graph g = bootstrap_refresh_graph(traits_for(i));
    const sim::Trace t = lower_to_trace(g, i);
    EXPECT_EQ(t.bootstrap_count, 1);
    EXPECT_GT(t.ops.size(), 50u); // composite expanded, not one op
    for (const auto& op : t.ops) {
        EXPECT_TRUE(op.in_bootstrap);
        EXPECT_GE(op.level, 1);
    }
}

TEST(Lowering, NonBootstrapOpsUntagged)
{
    const auto i = hw::ins1();
    GraphTraits t = traits_for(i);
    const Graph g = dot_product_graph(t, 5, 2);
    const sim::Trace trace = lower_to_trace(g, i);
    // The default-optimized dot fuses its PMult + HRescale into one
    // node; lowering expands every fused pair back to two primitives.
    const std::size_t fused = static_cast<std::size_t>(
        g.count_kind(OpKind::kPMultRescale) +
        g.count_kind(OpKind::kHMultRescale) +
        g.count_kind(OpKind::kCMultRescale) +
        g.count_kind(OpKind::kCMultAdd));
    EXPECT_EQ(fused, 1u);
    ASSERT_EQ(trace.ops.size(), g.num_nodes() + fused);
    for (const auto& op : trace.ops) {
        EXPECT_FALSE(op.in_bootstrap);
    }
    // PMult at 5, HRescale executes at 5, rotations/adds at 4.
    EXPECT_EQ(trace.ops[0].kind, HeOpKind::kPMult);
    EXPECT_EQ(trace.ops[0].level, 5);
    EXPECT_EQ(trace.ops[1].kind, HeOpKind::kHRescale);
    EXPECT_EQ(trace.ops[1].level, 5);
    EXPECT_EQ(trace.ops[2].kind, HeOpKind::kHRot);
    EXPECT_EQ(trace.ops[2].level, 4);
    EXPECT_EQ(trace.ops[2].rot_amount, 1);
}

TEST(Lowering, ObjectIdsFollowFirstUseOrder)
{
    const auto i = hw::ins1();
    GraphTraits t = traits_for(i);
    Graph g("ids", t);
    const Value a = g.input(5, t.delta);
    const Value b = g.input(5, t.delta);
    const Value s = g.hadd(a, b);
    g.mark_output(g.hadd(s, a));
    const sim::Trace trace = lower_to_trace(g, i);
    ASSERT_EQ(trace.ops.size(), 2u);
    EXPECT_EQ(trace.ops[0].inputs, (sim::OpInputs{0, 1}));
    EXPECT_EQ(trace.ops[0].output, 2);
    EXPECT_EQ(trace.ops[1].inputs, (sim::OpInputs{2, 0}));
    EXPECT_EQ(trace.ops[1].output, 3);
}

TEST(Lowering, LevelGeometryGuards)
{
    // A graph raising to a different L than the instance's must not
    // produce silently-wrong cost-model lookups.
    const auto i1 = hw::ins1();
    const auto i2 = hw::ins2();
    EXPECT_THROW(lower_to_trace(tmult_graph(i1), i2),
                 std::invalid_argument);

    // Value levels beyond the instance's chain are rejected too.
    GraphTraits t = traits_for(i2);
    const Graph deep = dot_product_graph(t, i2.max_level, 2);
    EXPECT_THROW(lower_to_trace(deep, i1), std::invalid_argument);
}

TEST(Lowering, BootstrapHasNoPrimitiveImage)
{
    EXPECT_THROW(to_sim_kind(OpKind::kBootstrap), std::invalid_argument);
    for (int k = 0; k < kNumOpKinds; ++k) {
        const OpKind kind = static_cast<OpKind>(k);
        if (kind == OpKind::kBootstrap) continue;
        if (op_is_composite(kind)) {
            // Pass-introduced composites expand in lower_to_trace and
            // must fail loudly if asked for a single sim image.
            EXPECT_THROW(to_sim_kind(kind), std::invalid_argument);
            continue;
        }
        if (kind == OpKind::kHSub) {
            // HSub has no sim twin of its own: it lowers to the
            // cost-identical kHAdd.
            EXPECT_EQ(to_sim_kind(kind), HeOpKind::kHAdd);
            continue;
        }
        EXPECT_STREQ(sim::kind_name(to_sim_kind(kind)), op_name(kind));
    }
}

} // namespace
} // namespace bts::runtime
