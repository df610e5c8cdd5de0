#include "runtime/apps/sort.h"

#include <functional>

#include "common/check.h"
#include "runtime/passes/pass_manager.h"

namespace bts::runtime::apps {

SortConfig
SortConfig::paper()
{
    return SortConfig{}; // the defaults are Table 6's circuit
}

SortConfig
SortConfig::functional()
{
    SortConfig cfg;
    cfg.log_elements = 2;
    cfg.sign_rounds = 6; // |g^(6)(x) - sign(x)| < 4e-4 on |x| >= 0.25
    return cfg;
}

SortApp
build_sort(const SortConfig& cfg, const GraphTraits& traits)
{
    BTS_CHECK(cfg.log_elements >= 1, "sort: needs blocks of >= 2");
    BTS_CHECK(cfg.sign_rounds >= 1, "sort: needs a sign iteration");
    BTS_CHECK(traits.bootstrap_out_level >= 4,
              "sort: a compare-exchange stage needs 4 usable levels "
              "after a refresh, the instance provides "
                  << traits.bootstrap_out_level
                  << " (level budget exhausted)");

    Graph g("sort_app", traits);
    Value v = g.input(traits.bootstrap_out_level, traits.delta);
    const Value v_in = v; // the handle callers bind (v is rebound below)
    std::vector<SortApp::Stage> stages;

    for (int phase = 1; phase <= cfg.log_elements; ++phase) {
        for (int sub = phase - 1; sub >= 0; --sub) {
            const int d = 1 << sub;
            SortApp::Stage st;
            st.phase = phase;
            st.distance = d;
            st.mask_lo = g.plain_input(traits.max_level, traits.delta);
            st.mask_hi = g.plain_input(traits.max_level, traits.delta);
            st.select = g.plain_input(traits.max_level, traits.delta);

            // Entry refresh: front end burns 2 levels, the select path
            // 2 more below the sign output; level >= 4 keeps every op
            // at level >= 1.
            if (g.value(v.id).level < 4) v = g.bootstrap(v);
            const Value p1 = g.hrot(v, d);
            const Value p2 = g.hrot(v, -d);
            const Value partner = g.hrescale(
                g.hadd(g.pmult(p1, st.mask_lo), g.pmult(p2, st.mask_hi)));
            const Value s = g.hadd(v, partner);
            const Value dif = g.hsub(v, partner);
            Value sg = g.hrescale(g.cmult(dif, 0.5));

            for (int round = 0; round < cfg.sign_rounds; ++round) {
                if (g.value(sg.id).level < 4) {
                    sg = g.bootstrap(sg); // mid-polynomial refresh
                }
                const Value m = g.hrescale(g.hmult(sg, sg));
                // CAdd after the rescale (delta^2-scale constants
                // overflow the evaluator's constant encoding).
                const Value t =
                    g.cadd(g.hrescale(g.cmult(m, -0.5)), 1.5);
                sg = g.hrescale(g.hmult(t, sg));
            }
            if (g.value(sg.id).level < 3) sg = g.bootstrap(sg);

            // Select: v' = 0.5*s + select * (sg * dif).
            const Value w1 = g.hrescale(g.cmult(s, 0.5));
            const Value u = g.hrescale(g.hmult(sg, dif));
            const Value w2 = g.hrescale(g.pmult(u, st.select));
            v = g.hadd(w1, w2);
            stages.push_back(st);
        }
    }
    g.mark_output(v);

    SortApp app{std::move(g), v_in, std::move(stages)};
    if (cfg.optimize) {
        passes::OptimizeResult r = passes::PassManager().optimize(app.graph);
        app.values = r.remap(app.values);
        for (SortApp::Stage& st : app.stages) {
            st.mask_lo = r.remap(st.mask_lo);
            st.mask_hi = r.remap(st.mask_hi);
            st.select = r.remap(st.select);
        }
        app.graph = std::move(r.graph);
    }
    return app;
}

namespace {

std::vector<Complex>
make_mask(int log_elements, std::size_t slots,
          const std::function<double(int)>& f)
{
    const int block = 1 << log_elements;
    BTS_CHECK(slots % static_cast<std::size_t>(block) == 0,
              "sort: slots must be a multiple of the block size");
    std::vector<Complex> mask(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        mask[i] = Complex(f(static_cast<int>(i) & (block - 1)), 0.0);
    }
    return mask;
}

} // namespace

std::vector<Complex>
sort_mask_lo(int log_elements, int distance, std::size_t slots)
{
    return make_mask(log_elements, slots, [distance](int il) {
        return (il & distance) == 0 ? 1.0 : 0.0;
    });
}

std::vector<Complex>
sort_mask_hi(int log_elements, int distance, std::size_t slots)
{
    return make_mask(log_elements, slots, [distance](int il) {
        return (il & distance) == 0 ? 0.0 : 1.0;
    });
}

std::vector<Complex>
sort_select_mask(int log_elements, int phase, int distance,
                 std::size_t slots)
{
    return make_mask(
        log_elements, slots, [phase, distance](int il) {
            const bool lower = (il & distance) == 0;
            const bool ascending = (il & (1 << phase)) == 0;
            const double e =
                (lower ? -1.0 : 1.0) * (ascending ? 1.0 : -1.0);
            return 0.5 * e;
        });
}

} // namespace bts::runtime::apps
