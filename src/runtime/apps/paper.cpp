#include "runtime/apps/paper.h"

#include <string>

#include "common/check.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"

namespace bts::runtime::apps {

namespace {

passes::PassOptions
pipeline(bool optimize)
{
    return optimize ? passes::PassOptions{} : passes::PassOptions::none();
}

struct Builtin
{
    std::string_view name;
    Graph (*build)(const hw::CkksInstance& inst, bool optimize);
};

constexpr Builtin kBuiltins[] = {
    {"tmult",
     [](const hw::CkksInstance& inst, bool optimize) {
         return tmult_graph(inst, pipeline(optimize));
     }},
    {"dot_product",
     [](const hw::CkksInstance& inst, bool optimize) {
         const GraphTraits t = traits_for(inst);
         return dot_product_graph(t, t.bootstrap_out_level, 8,
                                  pipeline(optimize));
     }},
    {"poly_eval",
     [](const hw::CkksInstance& inst, bool optimize) {
         const GraphTraits t = traits_for(inst);
         return poly_eval_graph(t, t.bootstrap_out_level,
                                {0.3, -1.0, 0.5, 0.25}, pipeline(optimize));
     }},
    {"bootstrap_refresh",
     [](const hw::CkksInstance& inst, bool optimize) {
         return bootstrap_refresh_graph(traits_for(inst),
                                        pipeline(optimize));
     }},
    {"helr",
     [](const hw::CkksInstance& inst, bool optimize) {
         HelrConfig cfg = HelrConfig::paper();
         cfg.optimize = optimize;
         return std::move(build_helr(cfg, traits_for(inst)).graph);
     }},
    {"resnet",
     [](const hw::CkksInstance& inst, bool optimize) {
         ResnetConfig cfg = ResnetConfig::paper();
         cfg.optimize = optimize;
         return std::move(build_resnet(cfg, traits_for(inst)).graph);
     }},
    {"sort",
     [](const hw::CkksInstance& inst, bool optimize) {
         SortConfig cfg = SortConfig::paper();
         cfg.optimize = optimize;
         return std::move(build_sort(cfg, traits_for(inst)).graph);
     }},
};

} // namespace

std::vector<std::string_view>
paper_graph_names()
{
    std::vector<std::string_view> names;
    for (const Builtin& b : kBuiltins) names.push_back(b.name);
    return names;
}

Graph
paper_graph(std::string_view name, const hw::CkksInstance& inst,
            bool optimize)
{
    for (const Builtin& b : kBuiltins) {
        if (b.name == name) return b.build(inst, optimize);
    }
    fatal("unknown paper graph '" + std::string(name) + "'");
}

sim::Trace
paper_trace(std::string_view name, const hw::CkksInstance& inst)
{
    return lower_to_trace(paper_graph(name, inst), inst);
}

} // namespace bts::runtime::apps
