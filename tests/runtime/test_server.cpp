#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <vector>

#include "ckks/test_utils.h"
#include "runtime/analysis/verifier.h"
#include "runtime/graph_workloads.h"
#include "runtime/server.h"

namespace bts::runtime {
namespace {

using testing::TestEnv;

struct ServerEnv
{
    ServerEnv() : env(bts::testing::small_params())
    {
        rot_keys = env.keygen.gen_rotation_keys(env.sk, {1, 2, 4});
        traits = traits_for(env.ctx);
        dot = std::make_unique<Graph>(
            dot_product_graph(traits, traits.max_level, 3));
        poly = std::make_unique<Graph>(
            poly_eval_graph(traits, traits.max_level, {0.5, -0.25, 1.0}));
    }

    EvalResources resources() { return env.resources(rot_keys); }

    JobRequest
    dot_job(u64 seed)
    {
        const std::size_t slots = env.ctx.n() / 2;
        JobRequest req;
        req.graph = dot.get();
        req.client = "dot-" + std::to_string(seed % 3);
        req.inputs.bind(Value{dot->input_ids()[0]},
                        env.encrypt(env.random_message(slots, 1.0, seed)));
        req.inputs.bind(
            Value{dot->input_ids()[1]},
            env.encoder.encode(env.random_message(slots, 1.0, seed + 1),
                               traits.delta, traits.max_level));
        return req;
    }

    JobRequest
    poly_job(u64 seed)
    {
        JobRequest req;
        req.graph = poly.get();
        req.client = "poly-" + std::to_string(seed % 3);
        req.inputs.bind(
            Value{poly->input_ids()[0]},
            env.encrypt(
                env.random_message(env.ctx.n() / 2, 0.7, seed)));
        return req;
    }

    TestEnv env;
    RotationKeys rot_keys;
    GraphTraits traits;
    std::unique_ptr<Graph> dot;
    std::unique_ptr<Graph> poly;
};

ServerEnv&
senv()
{
    static ServerEnv* e = new ServerEnv();
    return *e;
}

TEST(GraphServer, MixedClientsAllComplete)
{
    auto& e = senv();
    ServerOptions opts;
    opts.lanes = 4;
    GraphServer server(e.resources(), opts);

    std::vector<std::future<JobResult>> futures;
    for (u64 i = 0; i < 12; ++i) {
        futures.push_back(server.submit(
            i % 2 == 0 ? e.dot_job(100 + i) : e.poly_job(200 + i)));
    }
    for (auto& f : futures) {
        const JobResult r = f.get();
        ASSERT_EQ(r.outputs.size(), 1u);
        EXPECT_GE(r.exec_s, 0.0);
        EXPECT_GE(r.queue_s, 0.0);
        // Every job decrypts to something finite (full correctness is
        // pinned per-graph in test_executor).
        const auto dec = e.env.decrypt(r.outputs[0]);
        EXPECT_TRUE(std::isfinite(dec[0].real()));
    }

    server.drain();
    const ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, 12u);
    EXPECT_EQ(s.completed, 12u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_GT(s.jobs_per_s, 0.0);
    EXPECT_GT(s.p50_latency_s, 0.0);
    EXPECT_LE(s.p50_latency_s, s.p99_latency_s);
    EXPECT_GT(s.mean_exec_s, 0.0);
    // Per-client accounting: every job landed in its client's bucket.
    std::size_t by_client = 0;
    for (const auto& [client, count] : s.completed_by_client) {
        EXPECT_TRUE(client.rfind("dot-", 0) == 0 ||
                    client.rfind("poly-", 0) == 0)
            << client;
        by_client += count;
    }
    EXPECT_EQ(by_client, 12u);
}

TEST(GraphServer, ResultsMatchDirectExecution)
{
    auto& e = senv();
    // The same job payload through the server and through a plain
    // serial Executor must be bit-identical.
    const auto z = e.env.random_message(e.env.ctx.n() / 2, 0.7, 777);
    // Encrypt once — encryption is randomized, and bit-exactness only
    // holds for runs over the same ciphertext.
    const Ciphertext ct = e.env.encrypt(z);
    const auto make_binding = [&] {
        Binding b;
        b.bind(Value{e.poly->input_ids()[0]}, ct);
        return b;
    };

    const Executor ref(e.resources());
    const auto direct = ref.run_serial(*e.poly, make_binding());

    ServerOptions opts;
    opts.lanes = 2;
    GraphServer server(e.resources(), opts);
    JobRequest req;
    req.graph = e.poly.get();
    req.inputs = make_binding();
    const JobResult r = server.submit(std::move(req)).get();

    ASSERT_EQ(r.outputs.size(), direct.size());
    EXPECT_EQ(r.outputs[0].level, direct[0].level);
    EXPECT_TRUE(r.outputs[0].b.equals(direct[0].b));
    EXPECT_TRUE(r.outputs[0].a.equals(direct[0].a));
}

TEST(GraphServer, FailedJobDoesNotTakeServerDown)
{
    auto& e = senv();
    ServerOptions opts;
    opts.lanes = 2;
    GraphServer server(e.resources(), opts);

    // A job with a missing binding fails its own future...
    JobRequest bad;
    bad.graph = e.poly.get();
    auto bad_future = server.submit(std::move(bad));
    EXPECT_THROW(bad_future.get(), std::invalid_argument);

    // ...and the server keeps serving.
    const JobResult ok = server.submit(e.poly_job(31)).get();
    EXPECT_EQ(ok.outputs.size(), 1u);

    server.drain();
    const ServerStats s = server.stats();
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.completed, 1u);
}

TEST(GraphServer, TinyQueueBackpressures)
{
    auto& e = senv();
    ServerOptions opts;
    opts.lanes = 1;
    opts.queue_capacity = 1; // submit() blocks until the lane drains
    GraphServer server(e.resources(), opts);
    std::vector<std::future<JobResult>> futures;
    for (u64 i = 0; i < 6; ++i) {
        futures.push_back(server.submit(e.poly_job(400 + i)));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().outputs.size(), 1u);
    // Promises resolve before the lane records its bookkeeping, so
    // drain() — not future.get() — is the stats sync point.
    server.drain();
    EXPECT_EQ(server.stats().completed, 6u);
}

TEST(GraphServer, RegisterGraphOptimizesOnceAndServesBitExact)
{
    auto& e = senv();
    ServerOptions opts;
    opts.lanes = 2;
    GraphServer server(e.resources(), opts);

    // Register a pass-off baseline graph: the server runs the pipeline
    // once and caches the result for its lifetime.
    const Graph raw =
        poly_eval_graph(e.traits, e.traits.max_level, {0.5, -0.25, 1.0},
                        passes::PassOptions::rescale_only());
    const passes::OptimizeResult* opt = server.register_graph(raw);
    ASSERT_NE(opt, nullptr);
    EXPECT_GT(opt->stats.ops_fused, 0u);
    // Same uid -> the cached entry, not a re-optimization.
    EXPECT_EQ(server.register_graph(raw), opt);

    // Jobs against the registered graph are bit-identical to direct
    // execution of the unoptimized form over the same ciphertext.
    const Ciphertext ct = e.env.encrypt(
        e.env.random_message(e.env.ctx.n() / 2, 0.7, 881));
    Binding braw;
    braw.bind(Value{raw.input_ids()[0]}, ct);
    const Executor ref(e.resources());
    const auto direct = ref.run_serial(raw, std::move(braw));

    JobRequest req;
    req.graph = &opt->graph;
    req.inputs.bind(opt->remap(Value{raw.input_ids()[0]}), ct);
    const JobResult r = server.submit(std::move(req)).get();
    ASSERT_EQ(r.outputs.size(), direct.size());
    EXPECT_TRUE(testing::ct_equal(r.outputs[0], direct[0]));
}

TEST(GraphServer, RegisterGraphThatGrewGetsItsOwnEntry)
{
    // Builder calls keep a graph's uid: a graph registered, then grown
    // by a node and an output, must be served as grown. The entry of
    // its smaller self stays alive for the jobs that borrow it.
    auto& e = senv();
    GraphServer server(e.resources(), ServerOptions{});
    Graph g("grows", e.traits);
    const Value in = g.input(e.traits.max_level, e.traits.delta);
    const Value once = g.hrot(in, 1);
    g.mark_output(once);
    const passes::OptimizeResult* small = server.register_graph(g);
    ASSERT_EQ(small->graph.num_nodes(), 1u);

    g.mark_output(g.hrot(once, 2));
    const passes::OptimizeResult* grown = server.register_graph(g);
    ASSERT_NE(grown, small);
    EXPECT_EQ(grown->graph.num_nodes(), 2u);
    EXPECT_EQ(grown->graph.outputs().size(), 2u);
    EXPECT_EQ(small->graph.num_nodes(), 1u);
    EXPECT_EQ(server.register_graph(g), grown);

    const std::size_t slots = e.env.ctx.n() / 2;
    const auto x = e.env.random_message(slots, 1.0, 71);
    JobRequest req;
    req.graph = &grown->graph;
    req.inputs.bind(grown->remap(in), e.env.encrypt(x));
    const JobResult r = server.submit(std::move(req)).get();
    ASSERT_EQ(r.outputs.size(), 2u);
    const auto got = e.env.decrypt(r.outputs[1]);
    for (std::size_t j : {std::size_t{0}, slots - 2}) {
        EXPECT_NEAR(std::abs(got[j] - x[(j + 3) % slots]), 0.0, 1e-4);
    }
}

TEST(GraphServer, BootstrapRefreshJobsInTheMix)
{
    // The shared bootstrap-capable small instance (test_utils.h): the
    // third client class of the serving scenario, plus the rotation
    // keys the dot-product client needs.
    static testing::BootTestEnv* be =
        new testing::BootTestEnv(1234, {1, 2});
    TestEnv& env = be->env;

    const GraphTraits t = traits_for(env.ctx, be->boot.get());
    const auto z = env.random_message(64, 0.3, 51);

    const Graph refresh = bootstrap_refresh_graph(t);
    const Graph dot = dot_product_graph(t, t.max_level, 2);

    ServerOptions opts;
    opts.lanes = 2;
    GraphServer server(be->resources(), opts);
    std::vector<std::future<JobResult>> futures;
    for (int i = 0; i < 2; ++i) {
        JobRequest req;
        req.graph = &refresh;
        req.client = "refresh";
        req.inputs.bind(Value{refresh.input_ids()[0]},
                        env.encrypt(z, 0));
        futures.push_back(server.submit(std::move(req)));
    }
    {
        JobRequest req;
        req.graph = &dot;
        req.client = "dot";
        req.inputs.bind(Value{dot.input_ids()[0]},
                        env.encrypt(env.random_message(64, 1.0, 52)));
        req.inputs.bind(Value{dot.input_ids()[1]},
                        env.encoder.encode(
                            env.random_message(64, 1.0, 53), t.delta,
                            t.max_level));
        futures.push_back(server.submit(std::move(req)));
    }
    for (auto& f : futures) {
        EXPECT_EQ(f.get().outputs.size(), 1u);
    }
    server.drain();
    EXPECT_EQ(server.stats().completed, 3u);
    EXPECT_EQ(server.stats().failed, 0u);
}

TEST(GraphServer, RegisterRejectsGraphNeedingMissingKeys)
{
    // Admission control: the env holds rotation keys {1, 2, 4} and no
    // bootstrapper, so a graph rotating by 3 (or bootstrapping) is
    // rejected at registration with structured diagnostics instead of
    // failing every job on a worker lane.
    auto& e = senv();
    GraphServer server(e.resources(), ServerOptions{});

    Graph rot("needs-rot-3", e.traits);
    rot.mark_output(rot.hrot(rot.input(e.traits.max_level,
                                       e.traits.delta), 3));
    try {
        server.register_graph(rot);
        FAIL() << "expected VerifyError";
    } catch (const analysis::VerifyError& ex) {
        ASSERT_FALSE(ex.diagnostics().empty());
        EXPECT_EQ(ex.diagnostics()[0].rule, "missing-rotation-key");
        EXPECT_NE(std::string(ex.what()).find(" 3"), std::string::npos);
    }

    Graph boot("needs-boot", e.traits);
    boot.mark_output(boot.bootstrap(
        boot.input(0, e.traits.delta)));
    try {
        server.register_graph(boot);
        FAIL() << "expected VerifyError";
    } catch (const analysis::VerifyError& ex) {
        ASSERT_FALSE(ex.diagnostics().empty());
        EXPECT_EQ(ex.diagnostics()[0].rule, "missing-bootstrapper");
    }

    // Rejected graphs are not cached: a conforming graph still admits.
    EXPECT_NE(server.register_graph(*e.dot), nullptr);
}

TEST(GraphServer, RegisterRejectsGraphOffTheBootstrapperLevel)
{
    // The bound bootstrapper refreshes to level 1; a refresh graph
    // declaring level 2 would fail every job after a full bootstrap,
    // so admission rejects it.
    testing::BootTestEnv be(1234);
    TestEnv& env = be.env;
    GraphServer server(be.resources(), ServerOptions{});

    GraphTraits t = traits_for(env.ctx, be.boot.get());
    ASSERT_EQ(t.bootstrap_out_level, 1);
    t.bootstrap_out_level = 2;
    const Graph refresh = bootstrap_refresh_graph(t);
    try {
        server.register_graph(refresh);
        FAIL() << "expected VerifyError";
    } catch (const analysis::VerifyError& ex) {
        ASSERT_FALSE(ex.diagnostics().empty());
        EXPECT_EQ(ex.diagnostics()[0].rule, "bootstrap-level-mismatch");
    }
}

TEST(GraphServer, RegisterRejectsCorruptedGraph)
{
    auto& e = senv();
    GraphServer server(e.resources(), ServerOptions{});
    Graph g = *e.poly; // fresh uid; safe to corrupt a copy
    g.mutable_value(g.node(0).output).level += 1;
    try {
        server.register_graph(g);
        FAIL() << "expected VerifyError";
    } catch (const analysis::VerifyError& ex) {
        ASSERT_FALSE(ex.diagnostics().empty());
        EXPECT_EQ(ex.diagnostics()[0].rule, "meta-level");
        // The historical builder-error shape is greppable in what().
        EXPECT_NE(std::string(ex.what()).find("node 0"),
                  std::string::npos);
    }
}

} // namespace
} // namespace bts::runtime
