#include "runtime/apps/resnet.h"

#include "common/check.h"
#include "runtime/passes/pass_manager.h"

namespace bts::runtime::apps {

ResnetConfig
ResnetConfig::paper()
{
    return ResnetConfig{}; // the defaults are Table 6's circuit
}

ResnetConfig
ResnetConfig::functional()
{
    ResnetConfig cfg;
    cfg.layers = 2;
    cfg.conv_steps = 2;
    cfg.bn_steps = 1;
    cfg.relu_steps = 2;
    cfg.pool_rots = 3;
    return cfg;
}

ResnetApp
build_resnet(const ResnetConfig& cfg, const GraphTraits& traits)
{
    BTS_CHECK(cfg.layers >= 1 && cfg.conv_steps >= 1 &&
                  cfg.conv_taps >= 1,
              "resnet: degenerate configuration");
    BTS_CHECK(traits.bootstrap_out_level >= 2,
              "resnet: a 1-level burst needs 2 usable levels after a "
              "refresh, the instance provides "
                  << traits.bootstrap_out_level
                  << " (level budget exhausted)");

    Graph g("resnet_app", traits);
    Value act = g.input(traits.bootstrap_out_level, traits.delta);
    const Value act_in = act; // the handle callers bind (act is rebound)
    std::vector<Value> layer_outputs;
    std::vector<std::vector<Value>> taps(cfg.layers);
    for (int layer = 0; layer < cfg.layers; ++layer) {
        for (int t = 0; t < cfg.conv_taps; ++t) {
            taps[layer].push_back(
                g.plain_input(traits.max_level, traits.delta));
        }
    }
    const Value pool_pt = g.plain_input(traits.max_level, traits.delta);

    // ensure(): refresh when the next burst's levels (+1 so no op
    // executes below level 1) no longer fit.
    const auto ensure = [&](int needed) {
        if (g.value(act.id).level < needed + 1) act = g.bootstrap(act);
    };

    for (int layer = 0; layer < cfg.layers; ++layer) {
        for (int step = 0; step < cfg.conv_steps; ++step) {
            ensure(1);
            Value acc{};
            for (int r = 0; r < cfg.conv_taps; ++r) {
                const Value prod =
                    g.pmult(g.hrot(act, r + 1), taps[layer][r]);
                acc = r == 0 ? prod : g.hadd(acc, prod);
            }
            act = g.hrescale(acc);
        }
        for (int step = 0; step < cfg.bn_steps; ++step) {
            ensure(1);
            // CAdd after the rescale (delta^2-scale constants overflow
            // the evaluator's integer constant encoding).
            act = g.cadd(g.hrescale(g.cmult(act, cfg.bn_scale)),
                         cfg.bn_shift);
        }
        for (int step = 0; step < cfg.relu_steps; ++step) {
            ensure(1);
            Value m = g.hrescale(g.hmult(act, act));
            if (step % 2 == 0) m = g.cadd(m, cfg.relu_shift);
            act = m;
        }
        // Marking adds no ops, so the Table 6 pin is unaffected.
        g.mark_output(act);
        layer_outputs.push_back(act);
    }
    for (int r = 0; r < cfg.pool_rots; ++r) {
        if (g.value(act.id).level < 2) act = g.bootstrap(act);
        act = g.hadd(act, g.hrot(act, 1 << r));
    }
    act = g.pmult(act, pool_pt);
    g.mark_output(act);

    ResnetApp app{std::move(g), act_in, std::move(taps), pool_pt,
                  std::move(layer_outputs)};
    if (cfg.optimize) {
        passes::OptimizeResult r = passes::PassManager().optimize(app.graph);
        app.act = r.remap(app.act);
        for (auto& layer : app.taps) {
            for (Value& t : layer) t = r.remap(t);
        }
        app.pool_weights = r.remap(app.pool_weights);
        for (Value& o : app.layer_outputs) o = r.remap(o);
        app.graph = std::move(r.graph);
    }
    return app;
}

} // namespace bts::runtime::apps
