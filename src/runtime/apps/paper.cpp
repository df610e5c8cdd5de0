#include "runtime/apps/paper.h"

#include <string>

#include "common/check.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"

namespace bts::runtime::apps {

Graph
paper_graph(std::string_view name, const hw::CkksInstance& inst)
{
    const GraphTraits t = traits_for(inst);
    if (name == "tmult") {
        return tmult_graph(inst, passes::PassOptions::none());
    }
    if (name == "bootstrap_refresh") {
        return bootstrap_refresh_graph(t, passes::PassOptions::none());
    }
    if (name == "helr") {
        HelrConfig cfg = HelrConfig::paper();
        cfg.optimize = false;
        return std::move(build_helr(cfg, t).graph);
    }
    if (name == "resnet") {
        ResnetConfig cfg = ResnetConfig::paper();
        cfg.optimize = false;
        return std::move(build_resnet(cfg, t).graph);
    }
    if (name == "sort") {
        SortConfig cfg = SortConfig::paper();
        cfg.optimize = false;
        return std::move(build_sort(cfg, t).graph);
    }
    fatal("unknown paper graph '" + std::string(name) + "'");
}

sim::Trace
paper_trace(std::string_view name, const hw::CkksInstance& inst)
{
    return lower_to_trace(paper_graph(name, inst), inst);
}

} // namespace bts::runtime::apps
