// Differential pass-pipeline tests: the optimized form of a graph must
// execute BIT-IDENTICALLY to its unoptimized form — same output
// ciphertexts, limb for limb — at 1 and 8 scheduler lanes. This is the
// pipeline's core soundness contract (docs/PASSES.md): rotation CSE
// shares a decomposition the single-rotation path also uses, and fused
// nodes dispatch the same two-step evaluator arithmetic.
//
// Bit-exactness holds only when the rescale-placement pass is a no-op
// (an inserted rescale changes the arithmetic, approximately-but-not-
// bit-equally), so the fuzzer generates WATERLINE-CONFORMANT random
// graphs: every delta^2-scale value is consumed only by rescales,
// scale-matched adds/subs, rotations or conjugations.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ckks/test_utils.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/sort.h"
#include "runtime/executor.h"
#include "runtime/graph_workloads.h"
#include "runtime/passes/pass_manager.h"

namespace bts::runtime {
namespace {

using testing::ct_equal;
using testing::TestEnv;

/** Non-bootstrap env + the rotation keys the fuzzed graphs use. */
struct DiffEnv
{
    DiffEnv() : env(bts::testing::small_params())
    {
        rot_keys = env.keygen.gen_rotation_keys(env.sk, {1, 2, 4, 8});
    }

    EvalResources resources() { return env.resources(rot_keys); }

    GraphTraits traits() const { return traits_for(env.ctx); }

    TestEnv env;
    RotationKeys rot_keys;
};

DiffEnv&
denv()
{
    static DiffEnv* e = new DiffEnv();
    return *e;
}

/** The input objects for one differential: built once from the RAW
 *  graph's metadata and bound to both forms (encryption is randomized,
 *  so bit-exactness is only defined over identical input ciphertexts). */
struct Inputs
{
    std::map<int, Ciphertext> cts; //!< raw-graph value id -> ct
    std::map<int, Plaintext> pts;
};

Inputs
make_inputs(const Graph& raw, TestEnv& env, std::size_t slots, u64 seed)
{
    Inputs in;
    u64 s = seed;
    for (const int id : raw.input_ids()) {
        const ValueInfo& info = raw.value(id);
        const auto z = env.random_message(slots, 0.4, ++s);
        const Plaintext pt =
            env.encoder.encode(z, info.scale, info.level);
        if (info.is_plain) {
            in.pts.emplace(id, pt);
        } else {
            in.cts.emplace(id,
                           env.encryptor.encrypt_symmetric(pt, env.sk));
        }
    }
    return in;
}

/** Bind @p in to a graph; @p map translates raw ids to optimized ids
 *  (null = bind the raw graph itself). */
Binding
to_binding(const Inputs& in, const std::vector<int>* map)
{
    Binding b;
    for (const auto& [id, ct] : in.cts) {
        b.bind(Value{map ? (*map)[id] : id}, ct);
    }
    for (const auto& [id, pt] : in.pts) {
        b.bind(Value{map ? (*map)[id] : id}, pt);
    }
    return b;
}

/** Raw serial reference vs optimized at 1 and 8 lanes, ct_equal. */
void
expect_bit_exact(const EvalResources& res, const Graph& raw,
                 const passes::OptimizeResult& opt, const Inputs& in,
                 const std::string& what)
{
    const Executor ref(res);
    const std::vector<Ciphertext> want =
        ref.run_serial(raw, to_binding(in, nullptr));
    for (const int lanes : {1, 8}) {
        ExecOptions eo;
        eo.lanes = lanes;
        const Executor exec(res, eo);
        const std::vector<Ciphertext> got =
            exec.run(opt.graph, to_binding(in, &opt.value_map));
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t k = 0; k < want.size(); ++k) {
            EXPECT_TRUE(ct_equal(got[k], want[k]))
                << what << ": output " << k << " diverged at " << lanes
                << " lanes";
        }
    }
}

/**
 * Seeded conformant random graph: ~40 ops over mults (fused or kept
 * double-scale), rotations biased onto shared sources (CSE fodder,
 * duplicate amounts included), adds/subs, conjugations, and deferred
 * double-scale add+rescale chains. Every
 * value's scale class is tracked so the waterline pass is provably a
 * no-op on the result.
 */
Graph
build_fuzz_graph(const GraphTraits& t, u64 seed)
{
    Xoshiro256 rng(seed);
    Graph g("fuzz_" + std::to_string(seed), t);
    struct Val
    {
        Value v;
        bool dbl; //!< scale delta^2 (else exactly delta)
    };
    std::vector<Val> pool;
    for (int i = 0; i < 3; ++i) {
        pool.push_back({g.input(t.max_level, t.delta), false});
    }
    const Value pt = g.plain_input(t.max_level, t.delta);
    const int amounts[4] = {1, 2, 4, 8};

    // Pick a pool entry of the given class with level >= min_level.
    const auto pick = [&](bool dbl, int min_level) {
        std::vector<int> c;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (pool[i].dbl == dbl &&
                g.value(pool[i].v.id).level >= min_level) {
                c.push_back(static_cast<int>(i));
            }
        }
        return c.empty() ? -1 : c[rng.uniform(c.size())];
    };

    for (int op = 0; op < 40; ++op) {
        switch (rng.uniform(8)) {
        case 0: { // HMult; half fuse with a rescale, half stay double
            const int a = pick(false, 1), b = pick(false, 1);
            if (a < 0 || b < 0) break;
            const Value m = g.hmult(pool[a].v, pool[b].v);
            if (rng.uniform(2) == 0) {
                pool.push_back({g.hrescale(m), false});
            } else {
                pool.push_back({m, true});
            }
            break;
        }
        case 1: { // PMult + rescale (fusion fodder)
            const int a = pick(false, 1);
            if (a < 0) break;
            pool.push_back({g.hrescale(g.pmult(pool[a].v, pt)), false});
            break;
        }
        case 2: { // CMult; half fused, half kept double-scale
            const int a = pick(false, 1);
            if (a < 0) break;
            const Value m = g.cmult(pool[a].v, Complex(0.4, 0.1));
            if (rng.uniform(2) == 0) {
                pool.push_back({g.hrescale(m), false});
            } else {
                pool.push_back({m, true});
            }
            break;
        }
        case 3: { // CAdd (canonical-scale operand only) or Conj
            const int a = pick(false, 0);
            if (a < 0) break;
            pool.push_back({rng.uniform(2) == 0
                                ? g.cadd(pool[a].v, Complex(0.3, 0.0))
                                : g.conj(pool[a].v),
                            false});
            break;
        }
        case 4:
        case 5: { // rotations, biased onto shared sources for CSE
            const bool dbl = rng.uniform(4) == 0;
            const int a = pick(dbl, 0);
            if (a < 0) break;
            const Value src = pool[a].v;
            const int n_rots = 1 + static_cast<int>(rng.uniform(3));
            for (int k = 0; k < n_rots; ++k) {
                pool.push_back(
                    {g.hrot(src, amounts[rng.uniform(4)]), dbl});
            }
            break;
        }
        case 6: { // HAdd/HSub of canonical values
            const int a = pick(false, 0), b = pick(false, 0);
            if (a < 0 || b < 0) break;
            pool.push_back({rng.uniform(2) == 0
                                ? g.hadd(pool[a].v, pool[b].v)
                                : g.hsub(pool[a].v, pool[b].v),
                            false});
            break;
        }
        case 7: { // deferred reduction: add two delta^2 values, THEN
                  // rescale — the waterline's pass-through case
            const int a = pick(true, 1), b = pick(true, 1);
            if (a < 0 || b < 0) break;
            pool.push_back(
                {g.hrescale(g.hadd(pool[a].v, pool[b].v)), false});
            break;
        }
        }
    }

    // Mark the last few distinct values as outputs (at least one — the
    // inputs are in the pool, so it is never empty).
    std::vector<char> marked(g.num_values(), 0);
    int outs = 0;
    for (std::size_t i = pool.size(); i-- > 0 && outs < 3;) {
        if (marked[pool[i].v.id]) continue;
        marked[pool[i].v.id] = 1;
        g.mark_output(pool[i].v);
        ++outs;
    }
    return g;
}

TEST(PassDifferential, FuzzedConformantGraphsAreBitExact)
{
    auto& e = denv();
    const GraphTraits t = e.traits();
    const std::size_t slots = e.env.ctx.n() / 2;
    std::size_t exercised = 0;
    for (const u64 seed : {u64{11}, u64{22}, u64{33}, u64{44}}) {
        const Graph raw = build_fuzz_graph(t, seed);
        const passes::OptimizeResult opt =
            passes::PassManager().optimize(raw);
        // The rescale pass must be a no-op on a conformant graph —
        // otherwise the bit-exact comparison below is vacuous.
        ASSERT_EQ(opt.stats.rescales_inserted, 0u) << "seed " << seed;
        exercised += opt.stats.rotations_grouped + opt.stats.ops_fused +
                     opt.stats.nodes_eliminated;
        const Inputs in = make_inputs(raw, e.env, slots, seed * 1000);
        expect_bit_exact(e.resources(), raw, opt, in,
                         "fuzz seed " + std::to_string(seed));
    }
    // The corpus actually fired the passes it claims to test.
    EXPECT_GT(exercised, 0u);
}

TEST(PassDifferential, DotProductOptimizedMatchesRaw)
{
    auto& e = denv();
    const GraphTraits t = e.traits();
    const Graph raw = dot_product_graph(t, t.max_level, 3,
                                        passes::PassOptions::none());
    const passes::OptimizeResult opt =
        passes::PassManager().optimize(raw);
    EXPECT_GT(opt.stats.ops_fused, 0u);
    const Inputs in = make_inputs(raw, e.env, e.env.ctx.n() / 2, 501);
    expect_bit_exact(e.resources(), raw, opt, in, "dot");
}

TEST(PassDifferential, PolyEvalFusedMatchesRescaleOnly)
{
    // The rescale_only() form is the minimum executable baseline (the
    // raw Horner chain's constant adds see double-scale operands);
    // fusion and laziness on top must not change a single bit.
    auto& e = denv();
    const GraphTraits t = e.traits();
    const std::vector<double> coeffs{0.3, -1.0, 0.5, 0.25};
    const Graph base = poly_eval_graph(
        t, t.max_level, coeffs, passes::PassOptions::rescale_only());
    const passes::OptimizeResult opt =
        passes::PassManager().optimize(base);
    EXPECT_GT(opt.stats.ops_fused, 0u);
    const Inputs in = make_inputs(base, e.env, e.env.ctx.n() / 2, 502);
    expect_bit_exact(e.resources(), base, opt, in, "poly");
}

// ---------------------------------------------------------------------
// Application differentials: the bootstrapped Table 5/6 graphs,
// unoptimized vs optimized, at 1 and 8 lanes. Inputs are random (the
// contract is bit-exactness of the arithmetic, not training quality),
// and every source of randomness is seeded, so both sides see the
// identical ciphertexts.
// ---------------------------------------------------------------------

struct BootDiffEnv
{
    BootDiffEnv()
        : be(7321, {}, 20), traits(traits_for(be.env.ctx, be.boot.get()))
    {}

    /** @p graph_keys: the app graph's rotation keys (the bootstrapper
     *  carries its own set). */
    EvalResources
    resources(const RotationKeys& graph_keys) const
    {
        return be.env.resources(graph_keys, be.boot.get());
    }

    testing::BootTestEnv be;
    GraphTraits traits;
};

BootDiffEnv&
bdenv()
{
    static BootDiffEnv* e = new BootDiffEnv();
    return *e;
}

TEST(PassDifferential, SortAppOptimizedIsBitExact)
{
    auto& e = bdenv();
    apps::SortConfig cfg = apps::SortConfig::functional();
    cfg.optimize = false;
    const apps::SortApp raw = apps::build_sort(cfg, e.traits);
    const passes::OptimizeResult opt =
        passes::PassManager().optimize(raw.graph);
    EXPECT_GT(opt.stats.rotations_grouped, 0u);

    const RotationKeys keys = e.be.env.keygen.gen_rotation_keys(
        e.be.env.sk, raw.graph.required_rotations());
    const Inputs in = make_inputs(raw.graph, e.be.env, 64, 601);
    expect_bit_exact(e.resources(keys), raw.graph, opt, in, "sort");
}

TEST(PassDifferential, HelrAppOptimizedIsBitExact)
{
    auto& e = bdenv();
    apps::HelrConfig cfg = apps::HelrConfig::functional();
    cfg.optimize = false;
    const apps::HelrApp raw = apps::build_helr(cfg, e.traits);
    const passes::OptimizeResult opt =
        passes::PassManager().optimize(raw.graph);
    EXPECT_GT(opt.stats.ops_fused, 0u);

    const RotationKeys keys = e.be.env.keygen.gen_rotation_keys(
        e.be.env.sk, raw.graph.required_rotations());
    const Inputs in = make_inputs(raw.graph, e.be.env, 64, 602);
    expect_bit_exact(e.resources(keys), raw.graph, opt, in, "helr");
}

} // namespace
} // namespace bts::runtime
