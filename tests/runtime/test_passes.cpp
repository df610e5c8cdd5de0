// Pass-pipeline unit tests: pure graph-level pins (no crypto) for the
// waterline rescale placement, dead-value elimination, rotation CSE
// and fusion passes — legality rules, stats accounting,
// value-map correctness, idempotence and the DOT renderer.
// Bit-exactness of optimized execution is pinned separately in
// test_passes_differential.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/passes/dot.h"
#include "runtime/passes/pass_manager.h"

namespace bts::runtime {
namespace {

GraphTraits
small_traits()
{
    GraphTraits t;
    t.max_level = 10;
    t.bootstrap_out_level = 6;
    t.delta = std::ldexp(1.0, 40);
    return t;
}

TEST(PassManager, NoneIsAStructuralCopyWithFreshUid)
{
    const GraphTraits t = small_traits();
    const Graph g = dot_product_graph(t, 5, 3, passes::PassOptions::none());
    const passes::OptimizeResult r =
        passes::PassManager(passes::PassOptions::none()).optimize(g);
    EXPECT_EQ(r.graph.debug_string(), g.debug_string());
    EXPECT_NE(r.graph.uid(), g.uid()); // independent plan-cache entry
    // Identity value map on a pure copy.
    for (std::size_t id = 0; id < g.num_values(); ++id) {
        EXPECT_EQ(r.value_map[id], static_cast<int>(id));
    }
    EXPECT_EQ(r.stats.rescales_inserted, 0u);
    EXPECT_EQ(r.stats.ops_fused, 0u);
}

TEST(PassRescale, InsertsWaterlineRescaleBeforeNeedyConsumer)
{
    const GraphTraits t = small_traits();
    Graph g("raw", t);
    const Value x = g.input(6, t.delta);
    const Value m = g.cmult(x, 2.0);             // delta^2
    g.mark_output(g.cadd(m, Complex(1.0, 0.0))); // needs reduced scale

    const passes::OptimizeResult r =
        passes::PassManager(passes::PassOptions::rescale_only())
            .optimize(g);
    EXPECT_EQ(r.stats.rescales_inserted, 1u);

    // The optimized form is exactly the graph a careful author writes.
    Graph hand("raw", t);
    const Value hx = hand.input(6, t.delta);
    hand.mark_output(
        hand.cadd(hand.hrescale(hand.cmult(hx, 2.0)), Complex(1.0, 0.0)));
    EXPECT_EQ(r.graph.debug_string(), hand.debug_string());
}

TEST(PassRescale, SharedAcrossAllNeedyConsumers)
{
    const GraphTraits t = small_traits();
    Graph g("shared", t);
    const Value x = g.input(6, t.delta);
    const Value y = g.input(6, t.delta);
    const Value p = g.hmult(x, y); // delta^2, two needy consumers
    g.mark_output(g.cadd(p, Complex(1.0, 0.0)));
    g.mark_output(g.cmult(p, 0.5));

    const passes::OptimizeResult r =
        passes::PassManager(passes::PassOptions::rescale_only())
            .optimize(g);
    // ONE rescale serves both consumers.
    EXPECT_EQ(r.stats.rescales_inserted, 1u);
    EXPECT_EQ(r.graph.count_kind(OpKind::kHRescale), 1);
}

TEST(PassRescale, InsertOnlyNoOpOnConformantGraphs)
{
    // Hand-placed rescales are authoritative: builder graphs that
    // already satisfy the waterline replay byte-identically.
    const GraphTraits t = small_traits();
    const Graph dot =
        dot_product_graph(t, 5, 3, passes::PassOptions::none());
    const passes::OptimizeResult r1 =
        passes::PassManager(passes::PassOptions::rescale_only())
            .optimize(dot);
    EXPECT_EQ(r1.stats.rescales_inserted, 0u);
    EXPECT_EQ(r1.graph.debug_string(), dot.debug_string());

    const Graph tm = tmult_graph(hw::ins1(), passes::PassOptions::none());
    const passes::OptimizeResult r2 =
        passes::PassManager(passes::PassOptions::rescale_only())
            .optimize(tm);
    EXPECT_EQ(r2.stats.rescales_inserted, 0u);
    EXPECT_EQ(r2.graph.debug_string(), tm.debug_string());
}

TEST(PassRescale, MakesRawPolyExecutableShape)
{
    // The raw Horner chain carries no rescales at all; the waterline
    // pass inserts exactly one per constant add (degree many).
    const GraphTraits t = small_traits();
    const std::vector<double> coeffs{0.3, -1.0, 0.5, 0.25};
    const Graph raw =
        poly_eval_graph(t, 6, coeffs, passes::PassOptions::none());
    EXPECT_EQ(raw.count_kind(OpKind::kHRescale), 0);

    const passes::OptimizeResult r =
        passes::PassManager(passes::PassOptions::rescale_only())
            .optimize(raw);
    EXPECT_EQ(r.stats.rescales_inserted, 3u);
    EXPECT_EQ(r.graph.count_kind(OpKind::kHRescale), 3);
    ASSERT_EQ(r.graph.outputs().size(), 1u);
    EXPECT_EQ(r.graph.value(r.graph.outputs()[0]).level, 6 - 3);
    EXPECT_DOUBLE_EQ(r.graph.value(r.graph.outputs()[0]).scale, t.delta);
}

TEST(PassDve, DropsNodesThatCannotReachAnOutput)
{
    const GraphTraits t = small_traits();
    Graph g("dead", t);
    const Value x = g.input(6, t.delta);
    g.mark_output(g.cadd(x, Complex(0.5, 0.0)));
    const Value dead = g.hmult(x, x);
    const Value dead2 = g.hrescale(dead);
    (void)dead2;

    passes::PassOptions o = passes::PassOptions::none();
    o.eliminate_dead = true;
    const passes::OptimizeResult r = passes::PassManager(o).optimize(g);
    EXPECT_EQ(r.stats.nodes_eliminated, 2u);
    EXPECT_EQ(r.graph.num_nodes(), 1u);
    // Eliminated values are unmapped; declared inputs are always kept
    // (the Binding contract requires every declared input bound).
    EXPECT_EQ(r.value_map[dead.id], -1);
    EXPECT_FALSE(r.remap(dead).valid());
    EXPECT_EQ(r.graph.input_ids().size(), g.input_ids().size());
}

TEST(PassRotationCse, GroupsSharedInputAndDedupesAmounts)
{
    const GraphTraits t = small_traits();
    Graph g("rots", t);
    const Value x = g.input(6, t.delta);
    const Value r1 = g.hrot(x, 1);
    const Value r2 = g.hrot(x, 2);
    const Value r3 = g.hrot(x, 1); // duplicate amount -> CSE'd
    const Value z = g.cmult(x, 0.5);
    const Value rz = g.hrot(z, 4); // lone rotation: stays a kHRot
    g.mark_output(r2);
    g.mark_output(r3);
    g.mark_output(rz);
    (void)r1;

    passes::PassOptions o = passes::PassOptions::none();
    o.group_rotations = true;
    const passes::OptimizeResult r = passes::PassManager(o).optimize(g);
    EXPECT_EQ(r.stats.rotations_grouped, 3u);
    EXPECT_EQ(r.stats.nodes_eliminated, 1u); // the duplicate
    EXPECT_EQ(r.graph.count_kind(OpKind::kHRotHoisted), 1);
    EXPECT_EQ(r.graph.count_kind(OpKind::kHRot), 1);
    EXPECT_EQ(r.graph.num_nodes(), 3u);

    // Distinct amounts in first-appearance order; duplicates share one
    // output value.
    for (const Node& n : r.graph.nodes()) {
        if (n.kind != OpKind::kHRotHoisted) continue;
        EXPECT_EQ(n.amounts, (std::vector<int>{1, 2}));
        ASSERT_EQ(n.outputs.size(), 2u);
    }
    EXPECT_EQ(r.value_map[r1.id], r.value_map[r3.id]);
    EXPECT_NE(r.value_map[r1.id], r.value_map[r2.id]);
    // Key requirements are preserved.
    EXPECT_EQ(r.graph.required_rotations(), (std::vector<int>{1, 2, 4}));
}

TEST(PassFusion, FusesAllFourPairKinds)
{
    const GraphTraits t = small_traits();
    Graph g("fuse", t);
    const Value x = g.input(6, t.delta);
    const Value y = g.input(6, t.delta);
    const Value pt = g.plain_input(6, t.delta);
    g.mark_output(g.hrescale(g.hmult(x, y)));
    g.mark_output(g.hrescale(g.pmult(x, pt)));
    g.mark_output(g.hrescale(g.cmult(x, 0.25)));
    g.mark_output(g.cadd(g.cmult(y, 2.0), Complex(5.0, 0.0)));

    passes::PassOptions o = passes::PassOptions::none();
    o.fuse = true;
    const passes::OptimizeResult r = passes::PassManager(o).optimize(g);
    EXPECT_EQ(r.stats.ops_fused, 4u);
    EXPECT_EQ(r.graph.num_nodes(), 4u);
    EXPECT_EQ(r.graph.count_kind(OpKind::kHMultRescale), 1);
    EXPECT_EQ(r.graph.count_kind(OpKind::kPMultRescale), 1);
    EXPECT_EQ(r.graph.count_kind(OpKind::kCMultRescale), 1);
    EXPECT_EQ(r.graph.count_kind(OpKind::kCMultAdd), 1);
    for (const Node& n : r.graph.nodes()) {
        if (n.kind != OpKind::kCMultAdd) continue;
        EXPECT_EQ(n.constant, Complex(2.0, 0.0));
        EXPECT_EQ(n.constant2, Complex(5.0, 0.0));
    }
}

TEST(PassFusion, RefusesMultiUseAndMarkedIntermediates)
{
    const GraphTraits t = small_traits();
    Graph g("nofuse", t);
    const Value x = g.input(6, t.delta);
    const Value y = g.input(6, t.delta);
    // Intermediate with a second consumer: must stay unfused.
    const Value p = g.hmult(x, y);
    g.mark_output(g.hrescale(p));
    g.mark_output(g.cmult(p, 0.5));
    // Intermediate that is itself a graph output: must stay unfused.
    const Value q = g.hmult(y, y);
    g.mark_output(q);
    g.mark_output(g.hrescale(q));

    passes::PassOptions o = passes::PassOptions::none();
    o.fuse = true;
    const passes::OptimizeResult r = passes::PassManager(o).optimize(g);
    EXPECT_EQ(r.stats.ops_fused, 0u);
    EXPECT_EQ(r.graph.debug_string(), g.debug_string());
}

TEST(PassFusion, ValueMapDropsTheFusedIntermediate)
{
    const GraphTraits t = small_traits();
    Graph g("map", t);
    const Value x = g.input(6, t.delta);
    const Value p = g.hmult(x, x);
    const Value res = g.hrescale(p);
    g.mark_output(res);

    const passes::OptimizeResult r = passes::PassManager().optimize(g);
    EXPECT_EQ(r.value_map[p.id], -1); // no longer exists
    ASSERT_TRUE(r.remap(res).valid());
    EXPECT_EQ(r.graph.value(r.remap(res).id).level, 5);
    EXPECT_FALSE(r.remap(Value{}).valid()); // invalid stays invalid
}

TEST(PassManager, PipelineIsIdempotent)
{
    const GraphTraits t = small_traits();
    const Graph graphs[] = {
        dot_product_graph(t, 5, 3),
        poly_eval_graph(t, 6, {0.3, -1.0, 0.5, 0.25}),
        apps::build_sort(apps::SortConfig::functional(), t).graph,
    };
    for (const Graph& once : graphs) {
        const passes::OptimizeResult again =
            passes::PassManager().optimize(once);
        EXPECT_EQ(again.graph.debug_string(), once.debug_string())
            << once.name();
        EXPECT_EQ(again.stats.rescales_inserted, 0u) << once.name();
        EXPECT_EQ(again.stats.nodes_eliminated, 0u) << once.name();
        EXPECT_EQ(again.stats.rotations_grouped, 0u) << once.name();
        EXPECT_EQ(again.stats.ops_fused, 0u) << once.name();
    }
}

TEST(PassManager, SortGraphExercisesEveryPass)
{
    // The bitonic-sort app is the pipeline's richest client: paired
    // +/-d rotations group and mult+rescale chains fuse.
    const GraphTraits t = small_traits();
    apps::SortConfig cfg = apps::SortConfig::functional();
    cfg.optimize = false;
    const apps::SortApp raw = apps::build_sort(cfg, t);

    const passes::OptimizeResult r =
        passes::PassManager().optimize(raw.graph);
    EXPECT_GT(r.stats.rotations_grouped, 0u);
    EXPECT_GT(r.stats.ops_fused, 0u);
    EXPECT_GT(r.graph.count_kind(OpKind::kHRotHoisted), 0);
    EXPECT_LT(r.graph.num_nodes(), raw.graph.num_nodes());
}

TEST(Graph, ValidationErrorsNameNodeIndexAndKind)
{
    // The debuggability satellite: a builder error deep inside an
    // application graph points at the offending node, not just the
    // violated rule.
    const GraphTraits t = small_traits();
    Graph g("diag", t);
    const Value a = g.input(0, t.delta);
    g.mark_output(g.cadd(a, Complex(1.0, 0.0))); // node 0
    try {
        g.hrescale(a); // node 1: operand already at level 0
        FAIL() << "hrescale at level 0 must throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("node 1 (hrescale)"),
                  std::string::npos)
            << e.what();
    }
    try {
        const Value pt = g.plain_input(0, t.delta);
        const Value ct = g.input(5, t.delta);
        g.pmult(ct, pt);
        FAIL() << "pmult with a too-low plaintext must throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("node 1 (pmult)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Dot, RendersStructureAndComposites)
{
    const GraphTraits t = small_traits();
    Graph g("viz", t);
    const Value x = g.input(6, t.delta);
    const Value y = g.input(6, t.delta);
    const Value pt = g.plain_input(6, t.delta);
    const Value s = g.hadd(x, y);
    g.mark_output(g.hrescale(g.hmult(s, s)));
    g.mark_output(g.hrot(g.pmult(x, pt), 3));

    const passes::OptimizeResult r = passes::PassManager().optimize(g);
    const std::string dot = passes::to_dot(r.graph);
    EXPECT_EQ(dot.rfind("digraph", 0), 0u);
    EXPECT_NE(dot.find("HMultRescale"), std::string::npos);
    EXPECT_NE(dot.find("lightblue"), std::string::npos); // composite fill
    EXPECT_NE(dot.find("dashed"), std::string::npos);    // pt input
    EXPECT_NE(dot.find("peripheries=2"), std::string::npos); // outputs
    // The digraph closes.
    EXPECT_NE(dot.find("\n}"), std::string::npos);
}

} // namespace
} // namespace bts::runtime
