#include "runtime/apps/helr.h"

#include "common/check.h"
#include "runtime/passes/pass_manager.h"

namespace bts::runtime::apps {

HelrConfig
HelrConfig::paper()
{
    return HelrConfig{}; // the defaults are Table 5's circuit
}

HelrConfig
HelrConfig::functional()
{
    HelrConfig cfg;
    cfg.iterations = 3;
    cfg.data_cts = 2;
    cfg.log_features = 6; // 2^6 == functional_boot_config()'s slots
    return cfg;
}

HelrApp
build_helr(const HelrConfig& cfg, const GraphTraits& traits)
{
    BTS_CHECK(cfg.iterations >= 1, "helr: needs at least one iteration");
    BTS_CHECK(cfg.data_cts >= 1, "helr: needs at least one data ct");
    BTS_CHECK(cfg.log_features >= 0, "helr: negative rotation depth");
    BTS_CHECK(traits.bootstrap_out_level >= kHelrIterLevels + 1,
              "helr: one iteration spends " << kHelrIterLevels
                  << " levels; the instance refreshes to only "
                  << traits.bootstrap_out_level
                  << " usable levels (level budget exhausted)");

    Graph g("helr_app", traits);
    Value w = g.input(traits.bootstrap_out_level, traits.delta);
    const Value w_in = w; // the handle callers bind (w is rebound below)
    std::vector<Value> data;
    for (int c = 0; c < cfg.data_cts; ++c) {
        data.push_back(g.plain_input(traits.max_level, traits.delta));
    }
    const Value gd = g.plain_input(traits.max_level, traits.delta);

    for (int iter = 0; iter < cfg.iterations; ++iter) {
        if (g.value(w.id).level < kHelrIterLevels + 1) {
            w = g.bootstrap(w); // refresh the model state
        }
        // Inner products <w, X_c>: PMult + rotation log-tree sums.
        std::vector<Value> partials;
        for (int c = 0; c < cfg.data_cts; ++c) {
            Value acc = g.pmult(w, data[c]);
            for (int r = 0; r < cfg.log_features; ++r) {
                acc = g.hadd(acc, g.hrot(acc, 1 << r));
            }
            partials.push_back(acc);
        }
        Value u = partials[0];
        for (int c = 1; c < cfg.data_cts; ++c) {
            u = g.hadd(u, partials[c]);
        }
        u = g.hrescale(u);

        // Degree-3 sigmoid as u * (c3 u^2 + c1) + 0.5.
        const Value u2 = g.hrescale(g.hmult(u, u));
        // CAdd rides after the rescale: the functional evaluator
        // encodes add-constants at the ciphertext scale, and delta^2
        // overflows its 62-bit integer constant path.
        const Value t = g.cadd(g.hrescale(g.cmult(u2, cfg.c3)), cfg.c1);
        const Value sig = g.cadd(g.hrescale(g.hmult(t, u)), 0.5);

        // Gradient step; the learning rate rides in the plaintext.
        const Value v = g.hrescale(g.pmult(sig, gd));
        w = g.hadd(w, v);
    }
    g.mark_output(w);

    HelrApp app{std::move(g), w_in, std::move(data), gd};
    if (cfg.optimize) {
        passes::OptimizeResult r = passes::PassManager().optimize(app.graph);
        app.weights = r.remap(app.weights);
        for (Value& d : app.data) d = r.remap(d);
        app.grad_data = r.remap(app.grad_data);
        app.graph = std::move(r.graph);
    }
    return app;
}

} // namespace bts::runtime::apps
