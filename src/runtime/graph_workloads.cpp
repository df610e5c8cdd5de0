#include "runtime/graph_workloads.h"

#include <algorithm>
#include <cmath>

#include "ckks/bootstrapper.h"
#include "common/check.h"

namespace bts::runtime {

CkksParams
functional_params(int max_level, u64 seed)
{
    CkksParams p;
    p.n = 1 << 8;
    p.max_level = max_level;
    p.dnum = 3;
    p.q0_bits = 50;
    p.scale_bits = 40;
    p.special_bits = 50;
    p.hamming_weight = 32;
    p.seed = seed;
    return p;
}

BootstrapConfig
functional_boot_config()
{
    BootstrapConfig cfg;
    cfg.slots = 64;
    cfg.cts_radix = 8;
    cfg.stc_radix = 8;
    return cfg;
}

std::vector<int>
required_rotations(std::span<const Graph* const> graphs,
                   const Bootstrapper* boot)
{
    std::vector<int> amounts;
    const auto add = [&amounts](const std::vector<int>& rs) {
        for (const int r : rs) {
            if (std::find(amounts.begin(), amounts.end(), r) ==
                amounts.end()) {
                amounts.push_back(r);
            }
        }
    };
    if (boot != nullptr &&
        std::any_of(graphs.begin(), graphs.end(),
                    [](const Graph* g) { return g->uses_bootstrap(); })) {
        add(boot->required_rotations());
    }
    for (const Graph* g : graphs) add(g->required_rotations());
    return amounts;
}

GraphTraits
traits_for(const hw::CkksInstance& inst)
{
    GraphTraits t;
    t.max_level = inst.max_level;
    t.bootstrap_out_level = inst.usable_levels();
    t.delta = std::ldexp(1.0, inst.scale_bits);
    return t;
}

GraphTraits
traits_for(const CkksContext& ctx, const Bootstrapper* boot)
{
    GraphTraits t;
    t.max_level = ctx.max_level();
    t.bootstrap_out_level = boot ? boot->output_level() : ctx.max_level();
    t.delta = ctx.delta();
    return t;
}

namespace {

Graph
finish(Graph g, const passes::PassOptions& opts)
{
    passes::OptimizeResult r = passes::PassManager(opts).optimize(g);
    return std::move(r.graph);
}

} // namespace

Graph
tmult_graph(const hw::CkksInstance& inst, const passes::PassOptions& opts)
{
    BTS_CHECK(inst.usable_levels() >= 1, "instance cannot bootstrap");
    const GraphTraits t = traits_for(inst);
    Graph g("tmult_graph/" + inst.name, t);
    // The multiplicand is declared AFTER the bootstrap, so its lowered
    // object id follows the bootstrap plan's (the golden tmult traces
    // pin this id stream).
    Value ct = g.input(0, t.delta);
    ct = g.bootstrap(ct);
    Value other = g.input(t.bootstrap_out_level, t.delta);
    for (int lvl = t.bootstrap_out_level; lvl >= 1; --lvl) {
        ct = g.hmult(ct, other);
        ct = g.hrescale(ct);
    }
    g.mark_output(ct);
    return finish(std::move(g), opts);
}

Graph
dot_product_graph(const GraphTraits& traits, int level, int log_dim,
                  const passes::PassOptions& opts)
{
    BTS_CHECK(level >= 1, "dot product needs one rescale level");
    BTS_CHECK(log_dim >= 1, "dot product needs a nonempty reduction");
    Graph g("dot_product", traits);
    Value x = g.input(level, traits.delta);
    Value w = g.plain_input(level, traits.delta);
    Value acc = g.pmult(x, w);
    acc = g.hrescale(acc);
    for (int r = 0; r < log_dim; ++r) {
        const Value rot = g.hrot(acc, 1 << r);
        acc = g.hadd(acc, rot);
    }
    g.mark_output(acc);
    return finish(std::move(g), opts);
}

Graph
poly_eval_graph(const GraphTraits& traits, int level,
                const std::vector<double>& coeffs,
                const passes::PassOptions& opts)
{
    const int degree = static_cast<int>(coeffs.size()) - 1;
    BTS_CHECK(degree >= 1, "polynomial must have degree >= 1");
    BTS_CHECK(level >= degree,
              "degree-" << degree << " Horner chain needs " << degree
                        << " levels, input has " << level);
    Graph g("poly_eval_deg" + std::to_string(degree), traits);
    Value x = g.input(level, traits.delta);
    // Horner: acc = c_d * x + c_{d-1}; then acc = acc * x + c_j down to
    // the constant term. The leading coefficient rides in as a CMult.
    // No hand-placed rescales: the waterline pass inserts one before
    // every constant add, so the optimized chain spends exactly
    // `degree` levels (the raw form spends none and cannot execute —
    // its constant adds see double-scale operands).
    Value acc = g.cmult(x, coeffs[degree]);
    acc = g.cadd(acc, Complex(coeffs[degree - 1], 0.0));
    for (int j = degree - 2; j >= 0; --j) {
        acc = g.hmult(acc, x);
        acc = g.cadd(acc, Complex(coeffs[j], 0.0));
    }
    g.mark_output(acc);
    return finish(std::move(g), opts);
}

Graph
bootstrap_refresh_graph(const GraphTraits& traits,
                        const passes::PassOptions& opts)
{
    Graph g("bootstrap_refresh", traits);
    Value ct = g.input(0, traits.delta);
    ct = g.bootstrap(ct);
    g.mark_output(ct);
    return finish(std::move(g), opts);
}

} // namespace bts::runtime
