/**
 * The static resource analyzer's validation suite — the contract in
 * runtime/analysis/resource.h made executable:
 *
 *  - exact op counts: analyze_resources() op_counts match the lowered
 *    sim::Trace histogram for EVERY builtin graph, raw and optimized,
 *    on all three Table 4 instances, with zero tolerance;
 *  - calibrated costs: the analyzer's totals equal pricing the lowered
 *    trace with the same sim::CostModel;
 *  - liveness: predicted peak live ciphertexts/bytes equal the
 *    measured ExecStats peaks of deterministic serial runs;
 *  - parallelism profile: chain graphs report parallelism 1 / width 1,
 *    wide graphs report width >= any measured peak_in_flight;
 *  - the RS- budget rules, the workspace pool's high-water counters,
 *    and the GraphServer's cost-aware admission plumbing.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckks/test_utils.h"
#include "common/workspace.h"
#include "hwparams/instance.h"
#include "runtime/analysis/resource.h"
#include "runtime/apps/paper.h"
#include "runtime/executor.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"
#include "runtime/passes/pass_manager.h"
#include "runtime/server.h"
#include "sim/cost_model.h"

namespace bts::runtime {
namespace {

using testing::TestEnv;

// ---------------------------------------------------------------------
// (a) + (b): exact counts and calibrated totals vs the lowered trace.
// ---------------------------------------------------------------------

class ResourceSweep : public ::testing::TestWithParam<int>
{
  protected:
    hw::CkksInstance
    inst() const
    {
        return hw::table4_instances()[GetParam()];
    }
};

TEST_P(ResourceSweep, OpCountsMatchLoweredTraceExactly)
{
    const hw::CkksInstance i = inst();
    for (const bool raw : {false, true}) {
        for (const std::string_view name : apps::paper_graph_names()) {
            const Graph g = apps::paper_graph(name, i, !raw);
            const analysis::ResourceSummary s =
                analysis::analyze_resources(g, i);
            const sim::Trace trace = lower_to_trace(g, i);
            const auto hist = sim::kind_histogram(trace);
            std::size_t total = 0;
            for (int k = 0; k < sim::kHeOpKindCount; ++k) {
                const auto kind = static_cast<sim::HeOpKind>(k);
                const auto it = hist.find(kind);
                const std::size_t expect =
                    it == hist.end()
                        ? 0u
                        : static_cast<std::size_t>(it->second);
                EXPECT_EQ(s.op_counts[static_cast<std::size_t>(k)],
                          expect)
                    << name << (raw ? " raw" : " opt") << " kind "
                    << sim::kind_name(kind);
                total += expect;
            }
            EXPECT_EQ(s.total_ops, total) << name;
            EXPECT_EQ(s.total_ops, trace.ops.size()) << name;
            EXPECT_EQ(s.bootstrap_count, trace.bootstrap_count) << name;
        }
    }
}

TEST_P(ResourceSweep, CostTotalsEqualPricingTheLoweredTrace)
{
    // Calibration by construction: summing sim::CostModel over the
    // lowered trace reproduces the analyzer's totals (tiny relative
    // tolerance only for float summation order).
    const hw::CkksInstance i = inst();
    const sim::BtsConfig hw;
    const sim::CostModel cm(hw, i);
    for (const std::string_view name : apps::paper_graph_names()) {
        const Graph g = apps::paper_graph(name, i, /*optimize=*/true);
        const analysis::ResourceSummary s = analysis::analyze_resources(g, i);
        const sim::Trace trace = lower_to_trace(g, i);
        double work = 0, ntt = 0, bconv = 0, elem = 0, evk = 0;
        std::size_t evk_ops = 0;
        for (const sim::HeOp& op : trace.ops) {
            const sim::OpCost c = cm.op_cost(op);
            work += c.compute_s;
            ntt += c.ntt_s;
            bconv += c.bconv_s;
            elem += c.elem_s;
            evk += c.evk_bytes;
            if (sim::needs_evk(op.kind)) evk_ops += 1;
        }
        const auto near = [&](double a, double e, const char* what) {
            EXPECT_NEAR(a, e, 1e-9 * std::max(1.0, std::abs(e)))
                << name << " " << what;
        };
        near(s.total_work_s, work, "total_work_s");
        near(s.ntt_s, ntt, "ntt_s");
        near(s.bconv_s, bconv, "bconv_s");
        near(s.elem_s, elem, "elem_s");
        near(s.evk_bytes, evk, "evk_bytes");
        EXPECT_EQ(s.evk_ops, evk_ops) << name;
        EXPECT_GT(s.total_work_s, 0.0) << name;
        EXPECT_LE(s.keyswitch_work_s, s.total_work_s + 1e-12) << name;
        // The profile is internally consistent.
        EXPECT_GE(s.critical_path_s, 0.0);
        EXPECT_LE(s.critical_path_s, s.total_work_s + 1e-12) << name;
        EXPECT_GE(s.parallelism, 1.0 - 1e-9) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Table4, ResourceSweep, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------
// (c): predicted liveness == measured serial execution, functionally.
// ---------------------------------------------------------------------

struct FuncEnv
{
    FuncEnv() : env(bts::testing::small_params())
    {
        rot_keys = env.keygen.gen_rotation_keys(env.sk, {1, 2, 4});
        traits = traits_for(env.ctx);
    }

    EvalResources resources() { return env.resources(rot_keys); }

    TestEnv env;
    RotationKeys rot_keys;
    GraphTraits traits;
};

FuncEnv&
fenv()
{
    static FuncEnv* e = new FuncEnv();
    return *e;
}

TEST(ResourceLiveness, PredictedPeakEqualsMeasuredSerial)
{
    auto& e = fenv();
    const std::size_t slots = e.env.ctx.n() / 2;
    struct Case
    {
        const char* name;
        Graph graph;
    };
    std::vector<Case> cases;
    cases.push_back(
        {"dot", dot_product_graph(e.traits, e.traits.max_level, 3)});
    cases.push_back({"poly",
                     poly_eval_graph(e.traits, e.traits.max_level,
                                     {0.5, -0.25, 1.0, 0.125})});
    for (Case& c : cases) {
        Binding b;
        b.bind(Value{c.graph.input_ids()[0]},
               e.env.encrypt(e.env.random_message(slots, 0.7, 91)));
        if (c.graph.input_ids().size() > 1) {
            b.bind(Value{c.graph.input_ids()[1]},
                   e.env.encoder.encode(
                       e.env.random_message(slots, 1.0, 92),
                       e.traits.delta, e.traits.max_level));
        }
        const Executor exec(e.resources());
        ExecStats stats;
        const auto outs =
            exec.run_serial(c.graph, std::move(b), &stats);
        ASSERT_EQ(outs.size(), 1u) << c.name;

        const analysis::ResourceSummary s = analysis::analyze_resources(
            c.graph, serving_instance(e.env.ctx, c.graph));
        // Zero tolerance: the analyzer mirrors run_serial's release
        // discipline op for op.
        EXPECT_EQ(s.peak_live_values, stats.peak_live_values) << c.name;
        EXPECT_EQ(s.peak_live_bytes,
                  static_cast<double>(stats.peak_live_bytes))
            << c.name;
        EXPECT_GT(s.peak_live_values, 0u) << c.name;
    }
}

TEST(ResourceLiveness, BootstrapGraphPredictedPeakMatches)
{
    static testing::BootTestEnv* be = new testing::BootTestEnv(1234, {});
    TestEnv& env = be->env;
    const auto z = env.random_message(64, 0.3, 51);
    const Graph refresh =
        bootstrap_refresh_graph(traits_for(env.ctx, be->boot.get()));

    Binding b;
    b.bind(Value{refresh.input_ids()[0]}, env.encrypt(z, 0));
    const Executor exec(be->resources());
    ExecStats stats;
    exec.run_serial(refresh, std::move(b), &stats);

    const analysis::ResourceSummary s = analysis::analyze_resources(
        refresh, serving_instance(env.ctx, refresh));
    EXPECT_EQ(s.peak_live_values, stats.peak_live_values);
    EXPECT_EQ(s.peak_live_bytes,
              static_cast<double>(stats.peak_live_bytes));
    EXPECT_EQ(s.bootstrap_count, 1);
    EXPECT_GT(s.evk_working_set_bytes, 0.0);
}

// ---------------------------------------------------------------------
// (d): the static parallelism profile against measured schedules.
// ---------------------------------------------------------------------

TEST(ResourceParallelism, ChainGraphIsSerial)
{
    auto& e = fenv();
    Graph g("chain", e.traits);
    Value v = g.input(e.traits.max_level, e.traits.delta);
    for (int i = 0; i < 6; ++i) v = g.hadd(v, v);
    g.mark_output(v);

    const analysis::ResourceSummary s =
        analysis::analyze_resources(g, serving_instance(e.env.ctx, g));
    EXPECT_NEAR(s.parallelism, 1.0, 1e-9);
    EXPECT_NEAR(s.critical_path_s, s.total_work_s, 1e-15);
    EXPECT_EQ(s.width, 1u);

    // An 8-lane schedule cannot beat the dependence structure: every
    // node waits on its predecessor, so at most one runs at a time.
    ExecOptions eo;
    eo.lanes = 8;
    const Executor exec(e.resources(), eo);
    Binding b;
    b.bind(Value{g.input_ids()[0]},
           e.env.encrypt(
               e.env.random_message(e.env.ctx.n() / 2, 0.5, 11)));
    ExecStats stats;
    exec.run(g, std::move(b), &stats);
    EXPECT_EQ(stats.peak_in_flight, 1u);
}

TEST(ResourceParallelism, WideGraphWidthBoundsInFlight)
{
    auto& e = fenv();
    Graph g("wide", e.traits);
    const Value in = g.input(e.traits.max_level, e.traits.delta);
    constexpr int kLanesWide = 8;
    for (int i = 0; i < kLanesWide; ++i) {
        // Two-node independent chains so lanes have real work.
        g.mark_output(g.hadd(g.hadd(in, in), in));
    }

    const analysis::ResourceSummary s =
        analysis::analyze_resources(g, serving_instance(e.env.ctx, g));
    EXPECT_EQ(s.width, static_cast<std::size_t>(kLanesWide));
    EXPECT_GT(s.parallelism, 1.0);
    EXPECT_LT(s.critical_path_s, s.total_work_s);

    ExecOptions eo;
    eo.lanes = 4;
    const Executor exec(e.resources(), eo);
    Binding b;
    b.bind(Value{g.input_ids()[0]},
           e.env.encrypt(
               e.env.random_message(e.env.ctx.n() / 2, 0.5, 12)));
    ExecStats stats;
    exec.run(g, std::move(b), &stats);
    // No schedule can ever have more nodes in flight than the
    // dependence width (Dilworth bound), nor than the lanes running
    // them, one node each.
    EXPECT_LE(stats.peak_in_flight, s.width);
    EXPECT_LE(stats.peak_in_flight, static_cast<std::size_t>(eo.lanes));
    EXPECT_GE(stats.peak_in_flight, 1u);
}

// ---------------------------------------------------------------------
// RS- budget rules.
// ---------------------------------------------------------------------

TEST(ResourceRules, DisabledLimitsProduceNoDiagnostics)
{
    const hw::CkksInstance i = hw::ins1();
    const Graph g = tmult_graph(i);
    const analysis::ResourceSummary s = analysis::analyze_resources(g, i);
    EXPECT_TRUE(
        analysis::check_resources(s, analysis::ResourceLimits{}).empty());
}

TEST(ResourceRules, ViolationsMapToRsRules)
{
    const hw::CkksInstance i = hw::ins1();
    const Graph g = tmult_graph(i);
    const analysis::ResourceSummary s = analysis::analyze_resources(g, i);

    analysis::ResourceLimits limits;
    limits.max_peak_live_bytes = 1; // impossibly tight
    limits.max_evk_working_set_bytes = 1;
    limits.min_parallelism = 1e9;
    const auto diags = analysis::check_resources(s, limits);
    ASSERT_EQ(diags.size(), 3u);
    EXPECT_EQ(diags[0].rule, "rs-peak-live");
    EXPECT_EQ(diags[0].severity, analysis::Severity::kError);
    EXPECT_EQ(diags[1].rule, "rs-evk-working-set");
    EXPECT_EQ(diags[1].severity, analysis::Severity::kError);
    EXPECT_EQ(diags[2].rule, "rs-critical-path");
    EXPECT_EQ(diags[2].severity, analysis::Severity::kWarning);
    EXPECT_TRUE(analysis::has_errors(diags));

    // Generous budgets pass clean.
    analysis::ResourceLimits loose;
    loose.max_peak_live_bytes = 1e18;
    loose.max_evk_working_set_bytes = 1e18;
    loose.min_parallelism = 1e-9;
    EXPECT_TRUE(analysis::check_resources(s, loose).empty());
}

TEST(ResourceRules, RendersAreNonEmptyAndNameTheGraph)
{
    const hw::CkksInstance i = hw::ins2();
    const GraphTraits t = traits_for(i);
    const Graph g = dot_product_graph(t, t.bootstrap_out_level, 4);
    const analysis::ResourceSummary s = analysis::analyze_resources(g, i);
    const std::string text = analysis::render_resource_text(g.name(), s);
    const std::string json = analysis::render_resource_json(g.name(), s);
    const std::string sched = analysis::render_schedule_text(g, s);
    const std::string dot = analysis::to_resource_dot(g, s);
    EXPECT_NE(text.find(g.name()), std::string::npos);
    EXPECT_NE(json.find("\"total_work_s\""), std::string::npos);
    EXPECT_NE(sched.find("#0"), std::string::npos);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

// ---------------------------------------------------------------------
// Workspace pool high-water counters.
// ---------------------------------------------------------------------

TEST(WorkspaceHighWater, GaugesTrackAcquireReleaseAndResetRebases)
{
    reset_workspace_stats();
    const WorkspaceStats base = workspace_stats();

    U64Buffer a = acquire_buffer(1 << 12);
    U64Buffer b = acquire_buffer(1 << 10);
    const WorkspaceStats held = workspace_stats();
    EXPECT_EQ(held.outstanding_buffers, base.outstanding_buffers + 2);
    EXPECT_GE(held.outstanding_bytes,
              base.outstanding_bytes + ((1u << 12) + (1u << 10)) * 8);
    EXPECT_GE(held.peak_buffers, held.outstanding_buffers);
    EXPECT_GE(held.peak_bytes, held.outstanding_bytes);

    release_buffer(std::move(a));
    release_buffer(std::move(b));
    const WorkspaceStats done = workspace_stats();
    EXPECT_EQ(done.outstanding_buffers, base.outstanding_buffers);
    EXPECT_EQ(done.outstanding_bytes, base.outstanding_bytes);
    // The high-water marks survive the release...
    EXPECT_GE(done.peak_buffers, held.outstanding_buffers);
    EXPECT_GE(done.peak_bytes, held.outstanding_bytes);

    // ...until a reset rebases them to the current footprint.
    reset_workspace_stats();
    const WorkspaceStats rebased = workspace_stats();
    EXPECT_EQ(rebased.peak_buffers, rebased.outstanding_buffers);
    EXPECT_EQ(rebased.peak_bytes, rebased.outstanding_bytes);
    EXPECT_EQ(rebased.hits + rebased.misses, 0u);
}

TEST(WorkspaceHighWater, SerialRunPeakIsBoundedByPoolHighWater)
{
    // The pool's high-water mark is an upper bound on the analyzer's
    // semantic peak: every live ciphertext holds pool buffers, plus
    // scratch the liveness model deliberately excludes.
    auto& e = fenv();
    const Graph g =
        poly_eval_graph(e.traits, e.traits.max_level, {0.5, -0.25, 1.0});
    Binding b;
    b.bind(Value{g.input_ids()[0]},
           e.env.encrypt(
               e.env.random_message(e.env.ctx.n() / 2, 0.5, 21)));
    reset_workspace_stats();
    const Executor exec(e.resources());
    ExecStats stats;
    exec.run_serial(g, std::move(b), &stats);
    const WorkspaceStats pool = workspace_stats();
    EXPECT_GE(pool.peak_bytes, stats.peak_live_bytes);
}

// ---------------------------------------------------------------------
// GraphServer cost-aware admission.
// ---------------------------------------------------------------------

TEST(ServerCostAware, RegisteredGraphsCarryCachedSummaries)
{
    auto& e = fenv();
    GraphServer server(e.resources(), ServerOptions{});
    const Graph raw = poly_eval_graph(e.traits, e.traits.max_level,
                                      {0.5, -0.25, 1.0},
                                      passes::PassOptions::none());
    const passes::OptimizeResult* opt = server.register_graph(raw);
    ASSERT_NE(opt, nullptr);

    const analysis::ResourceSummary* s =
        server.resource_summary(opt->graph);
    ASSERT_NE(s, nullptr);
    EXPECT_GT(s->total_work_s, 0.0);
    EXPECT_GT(s->peak_live_values, 0u);
    // Unregistered graphs have no summary.
    const Graph other =
        dot_product_graph(e.traits, e.traits.max_level, 2);
    EXPECT_EQ(server.resource_summary(other), nullptr);

    // A submitted job reports the estimate it was scheduled by.
    JobRequest req;
    req.graph = &opt->graph;
    req.inputs.bind(
        opt->remap(Value{raw.input_ids()[0]}),
        e.env.encrypt(
            e.env.random_message(e.env.ctx.n() / 2, 0.6, 33)));
    const JobResult r = server.submit(std::move(req)).get();
    EXPECT_DOUBLE_EQ(r.est_cost_s, s->total_work_s);
    server.drain();
}

TEST(ServerCostAware, CheapTrafficOvertakesExpensiveUnderSjf)
{
    auto& e = fenv();
    const std::size_t slots = e.env.ctx.n() / 2;
    // Expensive: a mult-heavy polynomial. Cheap: one addition.
    const Graph exp_raw = poly_eval_graph(
        e.traits, e.traits.max_level,
        {0.5, -0.25, 1.0, 0.125, -0.5, 0.75, 0.3},
        passes::PassOptions::none());
    Graph cheap_raw("cheap-add", e.traits);
    {
        const Value in =
            cheap_raw.input(e.traits.max_level, e.traits.delta);
        cheap_raw.mark_output(cheap_raw.hadd(in, in));
    }

    ServerOptions opts;
    opts.lanes = 1; // one lane => queue ordering decides completion
    GraphServer server(e.resources(), opts);
    const auto* exp_opt = server.register_graph(exp_raw);
    const auto* cheap_opt = server.register_graph(cheap_raw);
    const double exp_cost =
        server.resource_summary(exp_opt->graph)->total_work_s;
    const double cheap_cost =
        server.resource_summary(cheap_opt->graph)->total_work_s;
    EXPECT_GT(exp_cost, cheap_cost);

    const auto make = [&](const Graph& g, const Graph& raw,
                          const passes::OptimizeResult* opt,
                          const char* client, u64 seed) {
        JobRequest req;
        req.graph = &g;
        req.client = client;
        req.inputs.bind(
            opt->remap(Value{raw.input_ids()[0]}),
            e.env.encrypt(e.env.random_message(slots, 0.6, seed)));
        return req;
    };

    // Alternate expensive/cheap onto the single lane (requests built —
    // and inputs encrypted — up front so submits are back-to-back and
    // the queue actually accumulates). Whenever both classes are
    // queued, SJF picks the cheap one, so cheap jobs spend far less
    // time queued than expensive ones on aggregate.
    std::vector<JobRequest> reqs;
    constexpr int kPairs = 8;
    for (int i = 0; i < kPairs; ++i) {
        reqs.push_back(make(exp_opt->graph, exp_raw, exp_opt,
                            "expensive", 100 + i));
        reqs.push_back(make(cheap_opt->graph, cheap_raw, cheap_opt,
                            "cheap", 200 + i));
    }
    std::vector<std::future<JobResult>> futures;
    double cheap_queue = 0, exp_queue = 0;
    for (auto& req : reqs) futures.push_back(server.submit(std::move(req)));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const JobResult r = futures[i].get();
        (i % 2 == 0 ? exp_queue : cheap_queue) += r.queue_s;
        EXPECT_DOUBLE_EQ(r.est_cost_s,
                         i % 2 == 0 ? exp_cost : cheap_cost);
    }
    EXPECT_LT(cheap_queue, exp_queue);

    server.drain();
    const ServerStats s = server.stats();
    EXPECT_EQ(s.completed, static_cast<std::size_t>(2 * kPairs));
    // Per-client tail accounting exists for both classes.
    EXPECT_EQ(s.p99_latency_by_client_s.count("cheap"), 1u);
    EXPECT_EQ(s.p99_latency_by_client_s.count("expensive"), 1u);
}

} // namespace
} // namespace bts::runtime
