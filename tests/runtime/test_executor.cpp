#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <new>
#include <vector>

#include "ckks/test_utils.h"
#include "runtime/executor.h"
#include "runtime/graph_workloads.h"

namespace bts::runtime {
namespace {

using testing::TestEnv;

/** Test env + the rotation keys the scenario graphs need. */
struct RuntimeEnv
{
    RuntimeEnv() : env(bts::testing::small_params())
    {
        rot_keys = env.keygen.gen_rotation_keys(env.sk, {1, 2, 4, 8});
    }

    EvalResources resources() { return env.resources(rot_keys); }

    GraphTraits traits() const { return traits_for(env.ctx); }

    TestEnv env;
    RotationKeys rot_keys;
};

RuntimeEnv&
renv()
{
    static RuntimeEnv* e = new RuntimeEnv();
    return *e;
}

using testing::ct_equal;

/** A graph with real inter-op parallelism: four independent
 *  mult/rotate/rescale chains joined by an add tree. */
Graph
fanout_graph(const GraphTraits& t)
{
    Graph g("fanout", t);
    const Value x = g.input(t.max_level, t.delta);
    std::vector<Value> chains;
    const int amounts[4] = {1, 2, 4, 8};
    for (int c = 0; c < 4; ++c) {
        Value v = g.hrot(x, amounts[c]);
        v = g.hmult(v, x);
        v = g.hrescale(v);
        v = g.cmult(v, 0.25 + 0.1 * c);
        v = g.hrescale(v);
        chains.push_back(v);
    }
    Value sum = g.hadd(chains[0], chains[1]);
    sum = g.hadd(sum, g.hadd(chains[2], chains[3]));
    g.mark_output(sum);
    return g;
}

TEST(Executor, DotProductMatchesPlainMath)
{
    auto& e = renv();
    const GraphTraits t = e.traits();
    const Graph g = dot_product_graph(t, t.max_level, 3);

    const std::size_t slots = e.env.ctx.n() / 2;
    const auto x = e.env.random_message(slots, 1.0, 11);
    const auto w = e.env.random_message(slots, 1.0, 12);

    Binding b;
    b.bind(Value{g.input_ids()[0]}, e.env.encrypt(x));
    b.bind(Value{g.input_ids()[1]},
           e.env.encoder.encode(w, t.delta, t.max_level));

    const Executor exec(e.resources());
    const auto outs = exec.run(g, std::move(b));
    ASSERT_EQ(outs.size(), 1u);
    const auto got = e.env.decrypt(outs[0]);

    // Slot j holds the 8-term cyclic window sum of x.*w.
    for (std::size_t j : {std::size_t{0}, slots / 2}) {
        Complex want(0, 0);
        for (std::size_t k = 0; k < 8; ++k) {
            const std::size_t i = (j + k) % slots;
            want += x[i] * w[i];
        }
        EXPECT_NEAR(std::abs(got[j] - want), 0.0, 1e-4);
    }
}

TEST(Executor, PolyEvalMatchesPlainMath)
{
    auto& e = renv();
    const GraphTraits t = e.traits();
    const std::vector<double> coeffs{0.3, -1.0, 0.5, 0.25};
    const Graph g = poly_eval_graph(t, t.max_level, coeffs);

    const std::size_t slots = e.env.ctx.n() / 2;
    const auto x = e.env.random_message(slots, 0.8, 13);
    Binding b;
    b.bind(Value{g.input_ids()[0]}, e.env.encrypt(x));

    const Executor exec(e.resources());
    const auto outs = exec.run(g, std::move(b));
    const auto got = e.env.decrypt(outs[0]);

    for (std::size_t j = 0; j < 4; ++j) {
        Complex want(0, 0);
        for (int d = static_cast<int>(coeffs.size()) - 1; d >= 0; --d) {
            want = want * x[j] + coeffs[d];
        }
        EXPECT_NEAR(std::abs(got[j] - want), 0.0, 1e-3);
    }
}

TEST(Executor, SchedulerBitExactAcrossLanes)
{
    auto& e = renv();
    const GraphTraits t = e.traits();
    const Graph g = fanout_graph(t);
    const auto x =
        e.env.random_message(e.env.ctx.n() / 2, 1.0, 21);

    // Encrypt ONCE: encryption is randomized (the encryptor's RNG
    // advances per call), so bit-exactness across schedules is only
    // defined for runs starting from the same ciphertext.
    const Ciphertext ct = e.env.encrypt(x);
    const auto bind = [&] {
        Binding b;
        b.bind(Value{g.input_ids()[0]}, ct);
        return b;
    };

    // The acceptance pin: scheduled execution at 1 and 8 lanes is
    // bit-identical to the serial reference run.
    const Executor ref(e.resources());
    const auto serial = ref.run_serial(g, bind());
    for (const int lanes : {1, 8}) {
        ExecOptions opts;
        opts.lanes = lanes;
        const Executor exec(e.resources(), opts);
        ExecStats stats;
        const auto outs = exec.run(g, bind(), &stats);
        ASSERT_EQ(outs.size(), serial.size()) << lanes << " lanes";
        EXPECT_TRUE(ct_equal(outs[0], serial[0])) << lanes << " lanes";
        EXPECT_EQ(stats.nodes, g.num_nodes());
        EXPECT_GE(stats.peak_in_flight, 1u);
        EXPECT_LE(stats.peak_in_flight, static_cast<std::size_t>(lanes));
    }

    // Decrypt-level check on top of the ciphertext-level one.
    const auto dec = e.env.decrypt(serial[0]);
    EXPECT_EQ(dec.size(), e.env.ctx.n() / 2);
}

TEST(Executor, PlanCacheSurvivesGraphAddressReuse)
{
    // Plans are keyed by Graph::uid(), not address: a new graph built
    // where a destroyed one lived must resolve its own evk handles. A
    // stale plan here would rotate with the amount-1 key while the node
    // says amount 2, decrypting to garbage.
    auto& e = renv();
    const GraphTraits t = e.traits();
    const Executor exec(e.resources());
    const std::size_t slots = e.env.ctx.n() / 2;
    const auto x = e.env.random_message(slots, 1.0, 61);

    alignas(Graph) unsigned char storage[sizeof(Graph)];
    const auto run_rot = [&](int amount) {
        Graph* g = new (storage) Graph("reuse", t);
        const Value in = g->input(t.max_level, t.delta);
        g->mark_output(g->hrot(in, amount));
        Binding b;
        b.bind(Value{g->input_ids()[0]}, e.env.encrypt(x));
        const auto outs = exec.run(*g, std::move(b));
        g->~Graph();
        return e.env.decrypt(outs[0]);
    };

    const auto rot1 = run_rot(1);
    const auto rot2 = run_rot(2); // same address as the amount-1 graph
    for (std::size_t j : {std::size_t{0}, slots - 3}) {
        EXPECT_NEAR(std::abs(rot1[j] - x[(j + 1) % slots]), 0.0, 1e-4);
        EXPECT_NEAR(std::abs(rot2[j] - x[(j + 2) % slots]), 0.0, 1e-4);
    }
}

TEST(Executor, InFlightWindowBoundsParallelism)
{
    auto& e = renv();
    const Graph g = fanout_graph(e.traits());
    Binding b;
    b.bind(Value{g.input_ids()[0]},
           e.env.encrypt(e.env.random_message(e.env.ctx.n() / 2, 1.0, 5)));

    ExecOptions opts;
    opts.lanes = 8;
    opts.max_in_flight = 2;
    const Executor exec(e.resources(), opts);
    ExecStats stats;
    exec.run(g, std::move(b), &stats);
    EXPECT_LE(stats.peak_in_flight, 2u);
}

TEST(Executor, PlaintextHandleCacheWarmsAcrossRuns)
{
    auto& e = renv();
    const GraphTraits t = e.traits();
    const Graph g = poly_eval_graph(t, t.max_level, {0.1, 0.2, 0.4});
    const auto bind = [&] {
        Binding b;
        b.bind(Value{g.input_ids()[0]},
               e.env.encrypt(
                   e.env.random_message(e.env.ctx.n() / 2, 0.5, 31)));
        return b;
    };

    const Executor exec(e.resources());
    ExecStats first, second;
    exec.run(g, bind(), &first);
    exec.run(g, bind(), &second);
    EXPECT_GT(first.plain_cache_misses, 0u);
    EXPECT_EQ(second.plain_cache_misses, first.plain_cache_misses);
    EXPECT_GT(second.plain_cache_hits, first.plain_cache_hits);
}

TEST(Executor, IntermediatesReleasedEagerly)
{
    auto& e = renv();
    const GraphTraits t = e.traits();
    // A long dependence chain: only the input and one intermediate can
    // ever be resident at once (plus the freshly produced value).
    Graph g("chain", t);
    Value v = g.input(t.max_level, t.delta);
    const Value x = v;
    for (int i = 0; i < 5; ++i) {
        v = g.cmult(v, 0.9);
        v = g.hrescale(v);
    }
    g.mark_output(v);
    (void)x;

    Binding b;
    b.bind(Value{g.input_ids()[0]},
           e.env.encrypt(e.env.random_message(e.env.ctx.n() / 2, 1.0, 7)));
    const Executor exec(e.resources());
    ExecStats stats;
    exec.run(g, std::move(b), &stats);
    // input + current + next <= 3 resident at any time.
    EXPECT_LE(stats.peak_live_values, 3u);
}

TEST(Executor, ResolveFailsLoudly)
{
    auto& e = renv();
    const GraphTraits t = e.traits();

    // Missing rotation key: fails at plan resolution, before any op.
    Graph g("bad-rot", t);
    g.mark_output(g.hrot(g.input(3, t.delta), 5));
    const Executor exec(e.resources());
    Binding b;
    b.bind(Value{g.input_ids()[0]},
           e.env.encrypt(e.env.random_message(4, 1.0, 1), 3));
    EXPECT_THROW(exec.run(g, std::move(b)), std::invalid_argument);

    // Missing mult key.
    Graph g2("no-mult-key", t);
    const Value a = g2.input(3, t.delta);
    g2.mark_output(g2.hmult(a, a));
    EvalResources bare;
    bare.eval = &e.env.evaluator;
    bare.encoder = &e.env.encoder;
    const Executor exec2(bare);
    Binding b2;
    b2.bind(Value{g2.input_ids()[0]},
            e.env.encrypt(e.env.random_message(4, 1.0, 2), 3));
    EXPECT_THROW(exec2.run(g2, std::move(b2)), std::invalid_argument);
}

TEST(Executor, BindingErrorsFailLoudly)
{
    auto& e = renv();
    const GraphTraits t = e.traits();
    Graph g("bind", t);
    const Value a = g.input(3, t.delta);
    g.mark_output(g.cadd(a, Complex(1.0, 0.0)));

    const Executor exec(e.resources());
    // Missing binding.
    EXPECT_THROW(exec.run(g, Binding{}), std::invalid_argument);
    // Level-mismatched binding.
    Binding wrong;
    wrong.bind(Value{g.input_ids()[0]},
               e.env.encrypt(e.env.random_message(4, 1.0, 3), 5));
    EXPECT_THROW(exec.run(g, std::move(wrong)), std::invalid_argument);
}

TEST(Executor, NodeFailurePropagatesFromWorkers)
{
    auto& e = renv();
    const GraphTraits t = e.traits();
    // Scales 1e-4 apart pass the graph's loose metadata check but trip
    // the evaluator's strict kScaleTolerance at execution time.
    Graph g("mismatch", t);
    const Value a = g.input(3, t.delta);
    const Value b = g.input(3, t.delta * (1.0 + 1e-4));
    g.mark_output(g.hadd(a, b));

    const auto bind = [&] {
        Binding bd;
        const auto z = e.env.random_message(4, 1.0, 4);
        bd.bind(Value{g.input_ids()[0]},
                e.env.encryptor.encrypt_symmetric(
                    e.env.encoder.encode(z, t.delta, 3), e.env.sk));
        bd.bind(Value{g.input_ids()[1]},
                e.env.encryptor.encrypt_symmetric(
                    e.env.encoder.encode(z, t.delta * (1.0 + 1e-4), 3),
                    e.env.sk));
        return bd;
    };
    for (const int lanes : {1, 4}) {
        ExecOptions opts;
        opts.lanes = lanes;
        const Executor exec(e.resources(), opts);
        EXPECT_THROW(exec.run(g, bind()), std::invalid_argument)
            << lanes << " lanes";
    }
}

TEST(Executor, PlanRebuiltForGraphThatGrew)
{
    // Builder calls keep a graph's uid: a graph run once, then grown
    // by seven rotations, must run against a plan covering every node,
    // not the one built for its first node.
    auto& e = renv();
    const GraphTraits t = e.traits();
    const Executor exec(e.resources());
    const std::size_t slots = e.env.ctx.n() / 2;
    const auto x = e.env.random_message(slots, 1.0, 63);
    const auto run = [&](const Graph& g) {
        Binding b;
        b.bind(Value{g.input_ids()[0]}, e.env.encrypt(x));
        return exec.run(g, std::move(b));
    };

    Graph g("grows", t);
    Value v = g.hrot(g.input(t.max_level, t.delta), 1);
    g.mark_output(v);
    ASSERT_EQ(run(g).size(), 1u);

    for (const int amount : {2, 4, 8, 1, 2, 4, 8}) v = g.hrot(v, amount);
    g.mark_output(v);
    const auto outs = run(g);
    ASSERT_EQ(outs.size(), 2u);
    const auto got = e.env.decrypt(outs[1]);
    for (std::size_t j : {std::size_t{0}, slots - 3}) {
        EXPECT_NEAR(std::abs(got[j] - x[(j + 30) % slots]), 0.0, 1e-4);
    }
}

/** The functional instance with its bootstrapper (test_utils.h). */
testing::BootTestEnv&
boot_env()
{
    static testing::BootTestEnv* be = new testing::BootTestEnv(99);
    return *be;
}

TEST(Executor, BootstrapNodeRefreshes)
{
    auto& be = boot_env();
    TestEnv& env = be.env;

    const GraphTraits t = traits_for(env.ctx, be.boot.get());
    ASSERT_GE(t.bootstrap_out_level, 1);
    const auto z = env.random_message(64, 0.3, 41);

    const Graph g = bootstrap_refresh_graph(t);
    const Executor exec(be.resources());
    Binding b;
    b.bind(Value{g.input_ids()[0]}, env.encrypt(z, 0));
    const auto outs = exec.run(g, std::move(b));
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].level, t.bootstrap_out_level);
    EXPECT_LT(TestEnv::max_err(env.decrypt(outs[0]), z), 1e-2);
}

/** A graph rotating by -3, then 5, then 64: amounts {-3, 5, 64}. */
Graph
odd_rotations_graph(const GraphTraits& t)
{
    Graph g("odd_rotations", t);
    Value v = g.input(t.max_level, t.delta);
    for (const int amount : {-3, 5, 64}) v = g.hrot(v, amount);
    g.mark_output(v);
    return g;
}

TEST(RequiredRotations, BootstrapperFirstThenGraphsInOrder)
{
    auto& be = boot_env();
    const GraphTraits t = traits_for(be.env.ctx, be.boot.get());
    const Graph odd = odd_rotations_graph(t);
    const Graph dot = dot_product_graph(t, t.max_level, 3); // 1, 2, 4
    const Graph refresh = bootstrap_refresh_graph(t);
    Graph seven("seven", t);
    seven.mark_output(seven.hrot(seven.input(t.max_level, t.delta), 7));
    const Graph* graphs[] = {&odd, &dot, &refresh, &seven};

    // The refresh graph pulls the bootstrapper's amounts to the front;
    // 64 (odd's) and 4 (dot's) are among them, so each appears once.
    std::vector<int> want = be.boot->required_rotations();
    ASSERT_EQ(std::count(want.begin(), want.end(), 64), 1);
    ASSERT_EQ(std::count(want.begin(), want.end(), 4), 1);
    for (const int r : {-3, 5, 7}) want.push_back(r);
    EXPECT_EQ(required_rotations(graphs, be.boot.get()), want);
}

TEST(RequiredRotations, BootstrapperLeftOutWithoutARefresh)
{
    auto& be = boot_env();
    const GraphTraits t = traits_for(be.env.ctx, be.boot.get());
    const Graph odd = odd_rotations_graph(t);
    const Graph dot = dot_product_graph(t, t.max_level, 3);
    const Graph* graphs[] = {&odd, &dot};
    EXPECT_EQ(required_rotations(graphs, be.boot.get()),
              (std::vector<int>{-3, 5, 64, 1, 2, 4}));
}

TEST(RequiredRotations, EmptyForNoGraphs)
{
    EXPECT_TRUE(required_rotations({}, boot_env().boot.get()).empty());
}

} // namespace
} // namespace bts::runtime
