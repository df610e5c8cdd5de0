/**
 * Predicted-vs-measured closure tests (runtime/telemetry/profile.h):
 * a traced GraphServer run's kNode spans must reproduce, per op kind,
 * exactly the node counts of the executed graph and exactly the
 * per-kind predicted-cost slices of the ResourceSummary the server
 * cached at registration — the contract that makes bts_profile's
 * ratio table trustworthy. Also pins the Chrome export of a served
 * run (one named track per lane, job lifecycle instants present) and
 * the renderers.
 *
 * Environment: the small non-bootstrap TestEnv (N=2^10, L=6) — the
 * closure is about span/cost bookkeeping, not refresh math, and this
 * keeps the suite in the TSan job's time budget.
 */
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <string>
#include <vector>

#include "ckks/test_utils.h"
#include "runtime/graph_workloads.h"
#include "runtime/server.h"
#include "runtime/telemetry/chrome_trace.h"
#include "runtime/telemetry/profile.h"
#include "runtime/telemetry/trace.h"

// Closure cases need captured spans; skip when the hooks are
// compiled out (-DBTS_TELEMETRY=OFF).
#if defined(BTS_TELEMETRY)
#define BTS_SKIP_WITHOUT_TELEMETRY() ((void)0)
#else
#define BTS_SKIP_WITHOUT_TELEMETRY() \
    GTEST_SKIP() << "built without BTS_TELEMETRY"
#endif

namespace bts::runtime::telemetry {
namespace {

using bts::testing::TestEnv;

constexpr std::size_t kSlots = 1 << 9; // N/2 for the small env

struct ProfileTestEnv
{
    ProfileTestEnv() : env(bts::testing::small_params())
    {
        rot_keys = env.keygen.gen_rotation_keys(env.sk, {1, 2, 4});
        traits = traits_for(env.ctx);
    }

    EvalResources resources() { return env.resources(rot_keys); }

    Binding
    make_binding(const Graph& g, u64 seed)
    {
        Binding b;
        for (const int id : g.input_ids()) {
            const auto vec = env.random_message(kSlots, 0.3, seed + id);
            if (g.value(id).is_plain) {
                b.bind(Value{id}, env.encoder.encode(vec, traits.delta,
                                                     traits.max_level));
            } else {
                b.bind(Value{id}, env.encrypt(vec, g.value(id).level));
            }
        }
        return b;
    }

    TestEnv env;
    RotationKeys rot_keys;
    GraphTraits traits;
};

ProfileTestEnv&
penv()
{
    static ProfileTestEnv* e = new ProfileTestEnv();
    return *e;
}

void
quiesce_and_reset()
{
    set_enabled(0);
    reset_trace();
}

/** Per-op-kind node histogram of @p g — what the span counts of a
 *  single traced run must equal. */
std::map<std::string, std::size_t>
kind_histogram(const Graph& g)
{
    std::map<std::string, std::size_t> h;
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        ++h[op_name(g.node(i).kind)];
    }
    return h;
}

/** Serve one traced job of @p reg on @p server: its kNode spans must
 *  reproduce the executed graph's node histogram and the per-kind
 *  predicted slices of the summary the server cached for it. */
void
expect_traced_run_reproduces_summary(GraphServer& server,
                                     const passes::OptimizeResult* reg,
                                     u64 seed)
{
    auto& e = penv();
    const analysis::ResourceSummary* summary =
        server.resource_summary(reg->graph);
    ASSERT_NE(summary, nullptr)
        << "serving instance must price the dot-product graph";

    quiesce_and_reset();
    set_enabled(static_cast<u32>(Category::kNode));
    JobRequest req;
    req.graph = &reg->graph;
    req.inputs = e.make_binding(reg->graph, seed);
    server.submit(std::move(req)).get();
    server.drain();
    set_enabled(0);

    const ProfileReport report = profile_from_trace(collect_trace());
    EXPECT_EQ(report.dropped_events, 0u);

    // Span counts per kind == the executed graph's node histogram.
    const auto hist = kind_histogram(reg->graph);
    ASSERT_EQ(report.ops.size(), hist.size());
    std::size_t spans = 0;
    for (const OpKindProfile& row : report.ops) {
        ASSERT_TRUE(hist.count(row.op)) << row.op;
        EXPECT_EQ(row.count, hist.at(row.op)) << row.op;
        EXPECT_GT(row.measured_s, 0.0) << row.op;
        spans += row.count;
    }
    EXPECT_EQ(spans, reg->graph.num_nodes());

    // The predicted column — summed from the cost tags the Executor
    // stamped on each span — must reproduce the static per-kind slices
    // of the cached ResourceSummary to float-rounding tolerance.
    const std::map<std::string, double> want =
        predicted_by_kind(reg->graph, *summary);
    double want_total = 0;
    for (const OpKindProfile& row : report.ops) {
        ASSERT_TRUE(want.count(row.op)) << row.op;
        EXPECT_NEAR(row.predicted_s, want.at(row.op),
                    1e-12 + 1e-9 * want.at(row.op))
            << row.op;
        want_total += want.at(row.op);
    }
    EXPECT_NEAR(report.predicted_total_s, want_total,
                1e-12 + 1e-9 * want_total);
    EXPECT_GT(report.measured_total_s, 0.0);
}

TEST(ProfileClosure, TracedRunReproducesSummarySlices)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    auto& e = penv();
    const Graph g =
        dot_product_graph(e.traits, e.traits.max_level, 3);

    ServerOptions opts;
    opts.lanes = 1;
    GraphServer server(e.resources(), opts);
    const passes::OptimizeResult* reg = server.register_graph(g);
    expect_traced_run_reproduces_summary(server, reg, 501);
}

TEST(ProfileClosure, PredictionsSurviveManyRegistrations)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    // Each job carries its graph's predicted costs, so no number of
    // later registrations can evict the profiled graph's predictions.
    auto& e = penv();
    const Graph g =
        dot_product_graph(e.traits, e.traits.max_level, 3);

    ServerOptions opts;
    opts.lanes = 1;
    GraphServer server(e.resources(), opts);
    const passes::OptimizeResult* reg = server.register_graph(g);
    for (int i = 0; i < 64; ++i) {
        const Graph other =
            dot_product_graph(e.traits, e.traits.max_level, 1 + i % 3);
        ASSERT_NE(server.register_graph(other), nullptr);
    }
    expect_traced_run_reproduces_summary(server, reg, 502);
}

TEST(ProfileClosure, UnregisteredGraphTracesWithZeroPrediction)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    // A graph run through a bare Executor (no register_graph, so no
    // predicted costs) still traces; the predicted column is zero.
    auto& e = penv();
    const Graph g = poly_eval_graph(e.traits, e.traits.max_level,
                                    {1.0, 0.5, 0.25});
    const Executor exec(e.resources());

    quiesce_and_reset();
    set_enabled(static_cast<u32>(Category::kNode));
    exec.run(g, e.make_binding(g, 733));
    set_enabled(0);

    const ProfileReport report = profile_from_trace(collect_trace());
    std::size_t spans = 0;
    for (const OpKindProfile& row : report.ops) {
        EXPECT_DOUBLE_EQ(row.predicted_s, 0.0) << row.op;
        spans += row.count;
    }
    EXPECT_EQ(spans, g.num_nodes());
    EXPECT_DOUBLE_EQ(report.predicted_total_s, 0.0);
}

TEST(ProfileClosure, ServedTraceExportsPerLaneTracks)
{
    BTS_SKIP_WITHOUT_TELEMETRY();
    auto& e = penv();
    const Graph g =
        dot_product_graph(e.traits, e.traits.max_level, 3);

    ServerOptions opts;
    opts.lanes = 2;
    GraphServer server(e.resources(), opts);
    const passes::OptimizeResult* reg = server.register_graph(g);

    quiesce_and_reset();
    set_enabled(static_cast<u32>(Category::kNode) |
                static_cast<u32>(Category::kServer));
    std::vector<std::future<JobResult>> futures;
    for (int j = 0; j < 6; ++j) {
        JobRequest req;
        req.graph = &reg->graph;
        req.inputs = e.make_binding(reg->graph, 900 + u64(j));
        futures.push_back(server.submit(std::move(req)));
    }
    for (auto& f : futures) f.get();
    server.drain();
    set_enabled(0);

    const Trace trace = collect_trace();
    const std::string json = to_chrome_trace_json(trace);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("lane 0"), std::string::npos);
    EXPECT_NE(json.find("lane 1"), std::string::npos);
    for (const char* lifecycle :
         {"job.submitted", "job.admitted", "job.scheduled", "job.done"}) {
        EXPECT_NE(json.find(lifecycle), std::string::npos) << lifecycle;
    }
    EXPECT_NE(json.find("server.queue_depth"), std::string::npos);

    // Node spans landed on named lane tracks (not the submitter).
    std::size_t lane_node_spans = 0;
    for (const ThreadTrace& th : trace.threads) {
        if (th.name.rfind("lane ", 0) != 0) continue;
        for (const TraceEvent& ev : th.events) {
            if (ev.kind == EventKind::kSpan &&
                ev.cat == Category::kNode) {
                ++lane_node_spans;
            }
        }
    }
    EXPECT_EQ(lane_node_spans, 6 * reg->graph.num_nodes());
}

TEST(ProfileRender, TextAndJsonCarryTheTable)
{
    ProfileReport r;
    r.ops.push_back({"HMult", 3, 0.5, 0.25});
    r.ops.push_back({"HAdd", 2, 0.1, 0.05});
    r.measured_total_s = 0.6;
    r.predicted_total_s = 0.3;
    r.dropped_events = 2;

    const std::string text = render_profile_text(r);
    EXPECT_NE(text.find("HMult"), std::string::npos);
    EXPECT_NE(text.find("TOTAL"), std::string::npos);
    EXPECT_NE(text.find("dropped"), std::string::npos);

    const std::string json = render_profile_json(r);
    EXPECT_NE(json.find("\"ops\""), std::string::npos);
    EXPECT_NE(json.find("\"HMult\""), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":2"), std::string::npos);
}

} // namespace
} // namespace bts::runtime::telemetry
