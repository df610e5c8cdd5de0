// Static-verifier unit tests: one deliberately-broken graph fixture
// per rule in the catalog (runtime/analysis/verifier.h) pinning that
// exactly that diagnostic fires, a zero-false-positive sweep over
// every builtin workload/app graph (raw and optimized, all three
// Table 4 instances), and pins for the diagnostic renderers, the
// VerifyError contract and the annotated-DOT output. The fixtures use
// Graph's unchecked mutation hooks because the builder API refuses to
// construct most of these graphs — which is itself the point: the
// verifier is the only line of defense against a buggy *pass*.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hwparams/instance.h"
#include "runtime/analysis/verifier.h"
#include "runtime/apps/paper.h"

namespace bts::runtime {
namespace {

using analysis::Analysis;
using analysis::AnalysisOptions;
using analysis::Diagnostic;
using analysis::Severity;

GraphTraits
small_traits()
{
    GraphTraits t;
    t.max_level = 10;
    t.bootstrap_out_level = 6;
    t.delta = std::ldexp(1.0, 40);
    return t;
}

std::size_t
count_rule(const std::vector<Diagnostic>& diags, const std::string& rule)
{
    std::size_t n = 0;
    for (const Diagnostic& d : diags) n += (d.rule == rule);
    return n;
}

/** The fixture contract: exactly one diagnostic, with this rule. */
void
expect_only(const Analysis& a, const std::string& rule,
            Severity sev = Severity::kError)
{
    ASSERT_EQ(a.diags.size(), 1u)
        << analysis::render_text("fixture", a.diags);
    EXPECT_EQ(a.diags[0].rule, rule);
    EXPECT_EQ(a.diags[0].severity, sev);
}

/** A minimal healthy graph: out = (x + y) * x, rescaled, marked. */
Graph
healthy()
{
    const GraphTraits t = small_traits();
    Graph g("healthy", t);
    const Value x = g.input(6, t.delta);
    const Value y = g.input(6, t.delta);
    g.mark_output(g.hrescale(g.hmult(g.hadd(x, y), x)));
    return g;
}

TEST(VerifierFixture, HealthyGraphIsClean)
{
    const Analysis a = analysis::analyze(healthy());
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(a.diags.empty())
        << analysis::render_text("healthy", a.diags);
}

// ------------------------------------------------------------------
// Structure rules.
// ------------------------------------------------------------------

TEST(VerifierFixture, StructureOperandOutOfRange)
{
    Graph g = healthy();
    g.mutable_node(0).inputs[1] = 999;
    expect_only(analysis::analyze(g), "structure-operand");
}

TEST(VerifierFixture, StructureOperandDefinedAfterUse)
{
    Graph g = healthy();
    // Node 0 (hadd) now consumes node 1's result: a use-before-def.
    g.mutable_node(0).inputs[1] = g.node(1).output;
    // The swap also breaks node 1's operand count bookkeeping; only
    // assert the use-before-def rule fired.
    const Analysis a = analysis::analyze(g);
    EXPECT_GE(count_rule(a.diags, "structure-operand"), 1u);
    EXPECT_FALSE(a.ok());
}

TEST(VerifierFixture, StructureProducerBackLinkBroken)
{
    Graph g = healthy();
    g.mutable_value(g.node(0).output).producer = -1;
    // Both ends of the broken cross-link report: the node whose
    // output lost its back-link and the orphaned value itself.
    const Analysis a = analysis::analyze(g);
    ASSERT_EQ(a.diags.size(), 2u)
        << analysis::render_text("fixture", a.diags);
    for (const Diagnostic& d : a.diags) {
        EXPECT_EQ(d.rule, "structure-producer");
        EXPECT_EQ(d.severity, Severity::kError);
    }
}

TEST(VerifierFixture, StructureProducerInputClaimsNode)
{
    Graph g = healthy();
    g.mutable_value(g.input_ids()[0]).producer = 0;
    expect_only(analysis::analyze(g), "structure-producer");
}

TEST(VerifierFixture, StructureProducerDoubleMarkedOutput)
{
    Graph g = healthy();
    // The PR 7 ship bug: the same value marked as an output twice.
    g.mutable_outputs().push_back(g.outputs()[0]);
    // The duplicate mark also bumps the derived use count; the
    // structural pass stops before use counts, so exactly one fires.
    expect_only(analysis::analyze(g), "structure-producer");
}

TEST(VerifierFixture, StructureProducerPlaintextOutput)
{
    const GraphTraits t = small_traits();
    Graph g("pt-out", t);
    const Value x = g.input(6, t.delta);
    const Value p = g.plain_input(6, t.delta);
    g.mark_output(g.pmult(x, p));
    g.mutable_outputs().push_back(p.id);
    expect_only(analysis::analyze(g), "structure-producer");
}

TEST(VerifierFixture, StructureArityWrongOperandCount)
{
    Graph g = healthy();
    g.mutable_node(0).inputs.pop_back(); // hadd with one operand
    const Analysis a = analysis::analyze(g);
    // Dropping an operand also drops a use; arity is the root cause
    // and must be among the findings.
    EXPECT_GE(count_rule(a.diags, "structure-arity"), 1u);
    EXPECT_FALSE(a.ok());
}

TEST(VerifierFixture, StructureArityZeroRotation)
{
    const GraphTraits t = small_traits();
    Graph g("rot", t);
    const Value x = g.input(6, t.delta);
    g.mark_output(g.hrot(x, 1));
    g.mutable_node(0).rot_amount = 0;
    expect_only(analysis::analyze(g), "structure-arity");
}

TEST(VerifierFixture, StructureArityPlainCipherSwap)
{
    const GraphTraits t = small_traits();
    Graph g("sig", t);
    const Value x = g.input(6, t.delta);
    const Value p = g.plain_input(6, t.delta);
    g.mark_output(g.pmult(x, p));
    // pmult's plaintext slot now holds a ciphertext.
    g.mutable_node(0).inputs[1] = x.id;
    const Analysis a = analysis::analyze(g);
    EXPECT_GE(count_rule(a.diags, "structure-arity"), 1u);
    EXPECT_FALSE(a.ok());
}

TEST(VerifierFixture, StructureUseCountCorrupted)
{
    Graph g = healthy();
    g.mutable_value(g.input_ids()[0]).num_uses += 1;
    const Analysis a = analysis::analyze(g);
    expect_only(a, "structure-use-count");
    // The hint names the stake: executor frees on the use count.
    EXPECT_NE(a.diags[0].hint.find("use-after-free"), std::string::npos);
}

// ------------------------------------------------------------------
// Metadata re-inference.
// ------------------------------------------------------------------

TEST(VerifierFixture, MetaLevelCorrupted)
{
    // Corrupting the terminal value (no consumers) pins exactly one
    // finding at exactly the corrupted node.
    Graph g = healthy();
    g.mutable_value(g.node(2).output).level += 1;
    const Analysis a = analysis::analyze(g);
    expect_only(a, "meta-level");
    EXPECT_EQ(a.diags[0].node, 2);
}

TEST(VerifierFixture, MetaLevelMidChainStaysLocal)
{
    // A mid-chain corruption fires at the corrupted node and at its
    // direct consumer (whose stored output no longer follows from its
    // stored operands) — but never cascades further, because each node
    // derives from STORED operand metadata, not derived.
    Graph g = healthy();
    g.mutable_value(g.node(1).output).level += 1;
    const Analysis a = analysis::analyze(g);
    EXPECT_EQ(count_rule(a.diags, "meta-level"), 2u);
    EXPECT_EQ(a.diags[0].node, 1);
    for (const Diagnostic& d : a.diags) {
        EXPECT_EQ(d.rule, "meta-level") << analysis::to_text(d);
    }
}

TEST(VerifierFixture, LevelZeroRescaleReportsLevelBudget)
{
    // The verifier applies the builder's rule, so a rescale whose
    // stored operand sits at level 0 reports the builder's rule id.
    Graph g = healthy();
    const int operand = g.node(1).output;
    g.mutable_value(operand).level = 0;
    const Analysis a = analysis::analyze(g, AnalysisOptions::wellformed());
    EXPECT_EQ(count_rule(a.diags, "level-budget"), 1u)
        << analysis::render_text("fixture", a.diags);
    for (const Diagnostic& d : a.diags) {
        if (d.node != 2) continue;
        EXPECT_EQ(d.rule, "level-budget") << analysis::to_text(d);
        EXPECT_EQ(d.value, operand);
    }
}

/** A one-node graph of @p kind through the typed builder method, over
 *  fresh inputs at a level every kind accepts, every result marked. */
Graph
one_node_graph(OpKind kind)
{
    const GraphTraits t = small_traits();
    Graph g(op_name(kind), t);
    const Value ct = g.input(kind == OpKind::kModRaise ? 0 : 4, t.delta);
    const Value ct2 = g.input(4, t.delta);
    const auto pt = [&] { return g.plain_input(4, t.delta); };
    const Complex c(0.5, 0.0);
    std::vector<Value> outs;
    switch (kind) {
    case OpKind::kHMult: outs = {g.hmult(ct, ct2)}; break;
    case OpKind::kHRot: outs = {g.hrot(ct, 3)}; break;
    case OpKind::kConj: outs = {g.conj(ct)}; break;
    case OpKind::kPMult: outs = {g.pmult(ct, pt())}; break;
    case OpKind::kPAdd: outs = {g.padd(ct, pt())}; break;
    case OpKind::kHAdd: outs = {g.hadd(ct, ct2)}; break;
    case OpKind::kHSub: outs = {g.hsub(ct, ct2)}; break;
    case OpKind::kHRescale: outs = {g.hrescale(ct)}; break;
    case OpKind::kCMult: outs = {g.cmult(ct, c)}; break;
    case OpKind::kCAdd: outs = {g.cadd(ct, c)}; break;
    case OpKind::kModRaise: outs = {g.mod_raise(ct)}; break;
    case OpKind::kBootstrap: outs = {g.bootstrap(ct)}; break;
    case OpKind::kHRotHoisted: outs = g.hrot_hoisted(ct, {1, -2}); break;
    case OpKind::kHMultRescale: outs = {g.hmult_rescale(ct, ct2)}; break;
    case OpKind::kPMultRescale: outs = {g.pmult_rescale(ct, pt())}; break;
    case OpKind::kCMultRescale: outs = {g.cmult_rescale(ct, c)}; break;
    case OpKind::kCMultAdd: outs = {g.cmult_add(ct, c, c)}; break;
    }
    for (const Value v : outs) g.mark_output(v);
    return g;
}

TEST(VerifierFixture, EveryOpKindAgreesWithTheBuilderRule)
{
    // Covers the kinds no builtin graph emits (Conj, PAdd, ModRaise,
    // CMultAdd): the builder's stored metadata re-derives cleanly, and
    // a bumped output level is caught at exactly that node.
    for (int k = 0; k < kNumOpKinds; ++k) {
        const OpKind kind = static_cast<OpKind>(k);
        SCOPED_TRACE(op_name(kind));
        const Graph g = one_node_graph(kind);
        ASSERT_EQ(g.num_nodes(), 1u);
        EXPECT_EQ(g.node(0).kind, kind);
        const Analysis clean =
            analysis::analyze(g, AnalysisOptions::wellformed());
        EXPECT_TRUE(clean.diags.empty())
            << analysis::render_text(g.name(), clean.diags);

        Graph bumped = g;
        bumped.mutable_value(bumped.node(0).output).level += 1;
        const Analysis a =
            analysis::analyze(bumped, AnalysisOptions::wellformed());
        ASSERT_EQ(a.diags.size(), 1u)
            << analysis::render_text(g.name(), a.diags);
        EXPECT_EQ(a.diags[0].rule, "meta-level");
        EXPECT_EQ(a.diags[0].node, 0);
    }
}

TEST(VerifierFixture, MetaScaleCorrupted)
{
    Graph g = healthy();
    g.mutable_value(g.node(0).output).scale *= 1.5;
    const Analysis a = analysis::analyze(g);
    EXPECT_FALSE(a.ok());
    EXPECT_GE(count_rule(a.diags, "meta-scale"), 1u);
    // Node 0's stored output scale disagrees with its re-derivation.
    EXPECT_EQ(a.diags[0].rule, "meta-scale");
    EXPECT_EQ(a.diags[0].node, 0);
}

TEST(VerifierFixture, ScaleMismatchOnAdd)
{
    const GraphTraits t = small_traits();
    Graph g("mismatch", t);
    const Value x = g.input(6, t.delta);
    const Value y = g.input(6, t.delta);
    g.mark_output(g.hrescale(g.hmult(g.hadd(x, y), x)));
    // Inputs carry no derivation, so skewing one only trips the
    // add-operand agreement rule.
    g.mutable_value(y.id).scale = t.delta * 1.01;
    expect_only(analysis::analyze(g), "scale-mismatch");
}

// ------------------------------------------------------------------
// Level / noise budgets.
// ------------------------------------------------------------------

TEST(VerifierFixture, LevelBudgetExhausted)
{
    const GraphTraits t = small_traits();
    Graph g("exhausted", t);
    // cmult at level 0 is legal per-op but leaves a delta^2 value that
    // can never be rescaled: the whole-graph budget rule catches it.
    const Value x = g.input(0, t.delta);
    g.mark_output(g.cmult(x, 2.0));
    expect_only(analysis::analyze(g), "level-budget");
}

TEST(VerifierFixture, LevelBudgetModulusCapacity)
{
    const GraphTraits t = small_traits();
    Graph g("capacity", t);
    // Scale 2^{1.3 S} at level 0: no rescale owed (rounds to delta),
    // but the scale exceeds the q0 * delta^0 capacity.
    g.mark_output(g.cadd(g.input(0, std::pow(t.delta, 1.3)), 1.0));
    const Analysis a = analysis::analyze(g);
    EXPECT_FALSE(a.ok());
    EXPECT_GE(count_rule(a.diags, "level-budget"), 1u);
    EXPECT_NE(a.diags[0].message.find("capacity"), std::string::npos);
}

TEST(VerifierFixture, NoiseBudgetSelfAddChain)
{
    // Under RMS composition each self-add adds exactly 0.5 bits; a
    // fresh input starts at 0.25 * 40 = 10 noise bits against a
    // 40-bit scale, so 64 doublings exhausts the budget.
    const GraphTraits t = small_traits();
    Graph g("chain", t);
    Value v = g.input(6, t.delta);
    for (int i = 0; i < 64; ++i) v = g.hadd(v, v);
    g.mark_output(v);
    const Analysis a = analysis::analyze(g);
    EXPECT_FALSE(a.ok());
    EXPECT_GE(count_rule(a.diags, "noise-budget"), 1u);
    for (const Diagnostic& d : a.diags) {
        EXPECT_EQ(d.rule, "noise-budget") << analysis::to_text(d);
    }
}

TEST(VerifierFixture, NoiseBudgetWarnsBeforeErroring)
{
    // 52 doublings: 10 + 26 = 36 noise bits, 4 bits of headroom left —
    // under the 0.15 * 40 = 6-bit warn line but still positive.
    const GraphTraits t = small_traits();
    Graph g("warn", t);
    Value v = g.input(6, t.delta);
    for (int i = 0; i < 52; ++i) v = g.hadd(v, v);
    g.mark_output(v);
    const Analysis a = analysis::analyze(g);
    EXPECT_TRUE(a.ok()); // warnings only
    EXPECT_GE(count_rule(a.diags, "noise-budget"), 1u);
    for (const Diagnostic& d : a.diags) {
        EXPECT_EQ(d.severity, Severity::kWarning);
    }
}

TEST(VerifierFixture, NoiseFactsTrackTheChain)
{
    const GraphTraits t = small_traits();
    Graph g("facts", t);
    const Value x = g.input(6, t.delta);
    const Value s = g.hadd(x, x);
    g.mark_output(s);
    const Analysis a = analysis::analyze(g);
    ASSERT_TRUE(a.ok());
    const double S = std::log2(t.delta);
    EXPECT_NEAR(a.values[x.id].noise_bits, 0.25 * S, 1e-9);
    EXPECT_NEAR(a.values[s.id].noise_bits, 0.25 * S + 0.5, 1e-9);
    EXPECT_NEAR(a.values[s.id].budget_bits, S - 0.25 * S - 0.5, 1e-9);
    EXPECT_EQ(a.values[s.id].level, 6);
    EXPECT_EQ(a.values[s.id].uses, 1);
}

// ------------------------------------------------------------------
// Evaluation-key requirements.
// ------------------------------------------------------------------

TEST(VerifierFixture, MissingKeysAllFourRules)
{
    const GraphTraits t = small_traits();
    Graph g("keys", t);
    const Value x = g.input(6, t.delta);
    const Value m = g.hrescale(g.hmult(x, x));
    const Value r = g.hrot(m, 3);
    const Value c = g.conj(r);
    g.mark_output(g.bootstrap(c));

    AnalysisOptions opts;
    opts.keys = analysis::KeySet{}; // holds nothing
    const Analysis a = analysis::analyze(g, opts);
    EXPECT_EQ(count_rule(a.diags, "missing-mult-key"), 1u);
    EXPECT_EQ(count_rule(a.diags, "missing-conj-key"), 1u);
    EXPECT_EQ(count_rule(a.diags, "missing-bootstrapper"), 1u);
    EXPECT_EQ(count_rule(a.diags, "missing-rotation-key"), 1u);
}

TEST(VerifierFixture, MissingRotationListsEveryAmountOnce)
{
    const GraphTraits t = small_traits();
    Graph g("rots", t);
    const Value x = g.input(6, t.delta);
    g.mark_output(g.hadd(g.hrot(x, 3), g.hrot(x, 5)));

    analysis::KeySet keys;
    keys.rotations = {1, 2, 4};
    AnalysisOptions opts;
    opts.keys = keys;
    const Analysis a = analysis::analyze(g, opts);
    ASSERT_EQ(count_rule(a.diags, "missing-rotation-key"), 1u);
    EXPECT_NE(a.diags[0].message.find(" 3"), std::string::npos);
    EXPECT_NE(a.diags[0].message.find(" 5"), std::string::npos);
}

TEST(VerifierFixture, PresentKeysSatisfyTheGraph)
{
    const GraphTraits t = small_traits();
    Graph g("keys-ok", t);
    const Value x = g.input(6, t.delta);
    g.mark_output(g.hrescale(g.hmult(g.hrot(x, 4), x)));

    analysis::KeySet keys;
    keys.mult = true;
    keys.rotations = {4};
    AnalysisOptions opts;
    opts.keys = keys;
    const Analysis a = analysis::analyze(g, opts);
    EXPECT_TRUE(a.diags.empty())
        << analysis::render_text("keys-ok", a.diags);
}

TEST(VerifierFixture, BootstrapLevelMismatch)
{
    // The graph's metadata says a refresh lands on level 6; the bound
    // bootstrapper refreshes to level 5.
    const GraphTraits t = small_traits();
    Graph g("refresh", t);
    g.mark_output(g.bootstrap(g.input(0, t.delta)));

    analysis::KeySet keys;
    keys.bootstrap = t.bootstrap_out_level - 1;
    AnalysisOptions opts;
    opts.keys = keys;
    expect_only(analysis::analyze(g, opts), "bootstrap-level-mismatch");

    keys.bootstrap = t.bootstrap_out_level;
    opts.keys = keys;
    EXPECT_TRUE(analysis::analyze(g, opts).diags.empty());
}

// ------------------------------------------------------------------
// Placement + lint rules (warnings).
// ------------------------------------------------------------------

TEST(VerifierFixture, BootstrapPlacementWastefulRefresh)
{
    const GraphTraits t = small_traits();
    Graph g("early-boot", t);
    // Refreshing a level-6 value on a 6-level budget discards all of
    // it; > 75% remaining is the warning line.
    const Value x = g.input(6, t.delta);
    g.mark_output(g.bootstrap(x));
    expect_only(analysis::analyze(g), "bootstrap-placement",
                Severity::kWarning);
}

TEST(VerifierFixture, RescaleBelowWaterline)
{
    const GraphTraits t = small_traits();
    Graph g("low-rescale", t);
    // delta^1.8 is under the delta^2 waterline but leaves the result
    // enough scale that the noise rule stays quiet.
    const Value x = g.input(6, std::pow(t.delta, 1.8));
    g.mark_output(g.hrescale(x));
    expect_only(analysis::analyze(g), "rescale-below-waterline",
                Severity::kWarning);
}

TEST(VerifierFixture, UnusedInput)
{
    const GraphTraits t = small_traits();
    Graph g("unused", t);
    const Value x = g.input(6, t.delta);
    g.input(6, t.delta); // declared, never consumed
    g.mark_output(g.cadd(x, 1.0));
    expect_only(analysis::analyze(g), "unused-input",
                Severity::kWarning);
}

TEST(VerifierFixture, DeadNode)
{
    const GraphTraits t = small_traits();
    Graph g("dead", t);
    const Value x = g.input(6, t.delta);
    g.mark_output(g.cadd(x, 1.0));
    g.cadd(x, 2.0); // result reaches no marked output
    expect_only(analysis::analyze(g), "dead-node", Severity::kWarning);
}

TEST(VerifierFixture, NoOutputs)
{
    const GraphTraits t = small_traits();
    Graph g("silent", t);
    const Value x = g.input(6, t.delta);
    g.cadd(x, 1.0);
    const Analysis a = analysis::analyze(g);
    EXPECT_TRUE(a.ok());
    EXPECT_GE(count_rule(a.diags, "no-outputs"), 1u);
    // The unmarked node is also dead; both are warnings.
    for (const Diagnostic& d : a.diags) {
        EXPECT_EQ(d.severity, Severity::kWarning);
    }
}

TEST(VerifierFixture, WellformedSubsetIgnoresLintsAndNoise)
{
    // The inter-pass verification profile must accept mid-pipeline
    // graphs that still carry dead nodes and unshared rescales.
    const GraphTraits t = small_traits();
    Graph g("mid-pipeline", t);
    const Value x = g.input(6, t.delta);
    g.mark_output(g.cadd(x, 1.0));
    g.cadd(x, 2.0); // dead
    const Analysis full = analysis::analyze(g);
    EXPECT_FALSE(full.diags.empty());
    const Analysis wf =
        analysis::analyze(g, AnalysisOptions::wellformed());
    EXPECT_TRUE(wf.diags.empty())
        << analysis::render_text("mid-pipeline", wf.diags);
}

// ------------------------------------------------------------------
// Zero-false-positive sweep: every builtin workload and application
// graph, raw and optimized, across the three Table 4 instances, lints
// with no diagnostics at all — not even warnings. This is the pin
// that keeps the noise model honest: a model that flags the paper's
// own Table 5/6 schedules is wrong, not the schedules.
// ------------------------------------------------------------------

class BuiltinSweep : public ::testing::TestWithParam<int>
{
  protected:
    hw::CkksInstance
    inst() const
    {
        switch (GetParam()) {
        case 1: return hw::ins2();
        case 2: return hw::ins3();
        default: return hw::ins1();
        }
    }
};

/** Lint every paper_graph() in @p names on @p ins, raw and optimized,
 *  expecting zero findings. */
void
expect_clean(const hw::CkksInstance& ins,
             std::span<const std::string_view> names)
{
    for (const std::string_view name : names) {
        for (const bool optimize : {false, true}) {
            const Graph g = apps::paper_graph(name, ins, optimize);
            const Analysis a = analysis::analyze(g);
            EXPECT_TRUE(a.diags.empty())
                << analysis::render_text(g.name(), a.diags);
        }
    }
}

/** paper_graph_names() lists graph_workloads.h's four circuits first,
 *  then the applications. */
constexpr std::size_t kWorkloadGraphs = 4;

TEST_P(BuiltinSweep, WorkloadGraphsLintClean)
{
    const auto names = apps::paper_graph_names();
    expect_clean(inst(), std::span(names).first(kWorkloadGraphs));
}

TEST_P(BuiltinSweep, ApplicationGraphsLintClean)
{
    const auto names = apps::paper_graph_names();
    expect_clean(inst(), std::span(names).subspan(kWorkloadGraphs));
}

INSTANTIATE_TEST_SUITE_P(Table4, BuiltinSweep,
                         ::testing::Values(0, 1, 2));

// ------------------------------------------------------------------
// Renderers, VerifyError and the annotated DOT.
// ------------------------------------------------------------------

TEST(DiagnosticRender, TextLineShape)
{
    Diagnostic d;
    d.rule = "meta-level";
    d.severity = Severity::kError;
    d.node = 12;
    d.op = "hmult";
    d.value = 34;
    d.message = "stored level 3, re-derived 2";
    d.hint = "rebuild the graph";
    const std::string line = analysis::to_text(d);
    EXPECT_NE(line.find("error:"), std::string::npos);
    EXPECT_NE(line.find("[meta-level]"), std::string::npos);
    // The historical builder format, greppable either way.
    EXPECT_NE(line.find("node 12 (hmult)"), std::string::npos);
    EXPECT_NE(line.find("v34"), std::string::npos);
    EXPECT_NE(line.find("fix:"), std::string::npos);
}

TEST(DiagnosticRender, JsonCarriesCountsAndFields)
{
    Graph g = healthy();
    g.mutable_value(g.node(0).output).scale *= 2.0;
    const Analysis a = analysis::analyze(g);
    ASSERT_FALSE(a.ok());
    const std::string js = analysis::render_json(g.name(), a.diags);
    EXPECT_NE(js.find("\"graph\": \"healthy\""), std::string::npos);
    EXPECT_NE(js.find("\"errors\""), std::string::npos);
    EXPECT_NE(js.find("\"rule\": \"meta-scale\""), std::string::npos);
    EXPECT_NE(js.find("\"severity\": \"error\""), std::string::npos);
}

TEST(DiagnosticRender, VerifyOrThrowCarriesStructuredDiags)
{
    Graph g = healthy();
    g.mutable_value(g.input_ids()[0]).num_uses = 7;
    try {
        analysis::verify_or_throw(g);
        FAIL() << "expected VerifyError";
    } catch (const analysis::VerifyError& e) {
        EXPECT_EQ(e.graph_name(), "healthy");
        ASSERT_FALSE(e.diagnostics().empty());
        EXPECT_EQ(e.diagnostics()[0].rule, "structure-use-count");
        // what() renders the same report; catchable as the historical
        // std::invalid_argument builder error.
        EXPECT_NE(std::string(e.what()).find("structure-use-count"),
                  std::string::npos);
    }
    Graph ok = healthy();
    EXPECT_NO_THROW(analysis::verify_or_throw(ok));
}

TEST(DiagnosticRender, BuilderErrorsShareTheDiagnosticShape)
{
    // Graph::append failures throw the same VerifyError the analyzer
    // throws, with one structured diagnostic.
    const GraphTraits t = small_traits();
    Graph g("builder", t);
    const Value x = g.input(0, t.delta);
    try {
        g.hrescale(x); // level 0: builder-time rejection
        FAIL() << "expected VerifyError";
    } catch (const analysis::VerifyError& e) {
        ASSERT_EQ(e.diagnostics().size(), 1u);
        EXPECT_EQ(e.diagnostics()[0].rule, "level-budget");
        EXPECT_NE(std::string(e.what()).find("node 0 (hrescale)"),
                  std::string::npos);
    }
}

TEST(AnnotatedDot, RendersFactsAndTints)
{
    Graph g = healthy();
    const Analysis clean = analysis::analyze(g);
    const std::string dot_clean = analysis::to_annotated_dot(g, clean);
    EXPECT_NE(dot_clean.find("digraph \"healthy\""), std::string::npos);
    EXPECT_NE(dot_clean.find("noise="), std::string::npos);
    EXPECT_NE(dot_clean.find("budget="), std::string::npos);
    EXPECT_EQ(dot_clean.find("fillcolor"), std::string::npos);

    Graph bad = healthy();
    bad.mutable_value(bad.node(0).output).scale *= 2.0;
    const Analysis a = analysis::analyze(bad);
    const std::string dot_bad = analysis::to_annotated_dot(bad, a);
    EXPECT_NE(dot_bad.find("fillcolor=lightcoral"), std::string::npos);
}

} // namespace
} // namespace bts::runtime
