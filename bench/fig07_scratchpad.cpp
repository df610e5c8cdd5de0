/**
 * @file
 * Fig. 7 reproduction:
 *  (a) minimum-bound vs actual T_mult,a/slot at 512MB and 2GB
 *      scratchpads for INS-1/2/3;
 *  (b) the fraction of each application spent in bootstrapping (INS-1).
 *
 * Expected shape: 2GB recovers the minimum bound (ct caches mostly
 * hit); INS-2 is best at the bound; bootstrapping dominates every
 * app. The paper's Fig. 7(b) has ResNet-20 with the smallest share,
 * and the "paper shape" line restates that. The line after it prints
 * this model's order, sorted from the rows above: on INS-1 Sorting is
 * highest, then the T_mult microbenchmark, ResNet-20, and HELR lowest
 * (see docs/APPLICATIONS.md).
 */
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "hwparams/explorer.h"
#include "runtime/apps/paper.h"
#include "sim/engine.h"

int
main()
{
    using namespace bts;
    using runtime::apps::paper_trace;
    printf("=== Fig. 7(a): min bound vs scratchpad-limited Tmult ===\n");
    printf("%-8s %12s %12s %12s\n", "inst", "min-bound", "512MB", "2GB");
    for (const auto& inst : hw::table4_instances()) {
        sim::BtsConfig hw512;
        sim::BtsConfig hw2g;
        hw2g.scratchpad_bytes = 2048.0 * (1 << 20);
        const sim::Trace tmult = paper_trace("tmult", inst);
        const auto r512 = sim::BtsSimulator(hw512, inst).run(tmult);
        const auto r2g = sim::BtsSimulator(hw2g, inst).run(tmult);
        printf("%-8s %10.1fns %10.1fns %10.1fns\n", inst.name.c_str(),
               hw::min_bound_tmult_ns(inst), r512.tmult_a_slot_ns,
               r2g.tmult_a_slot_ns);
    }

    printf("\n=== Fig. 7(b): bootstrapping share per app (INS-1) ===\n");
    const auto inst = hw::ins1();
    const sim::BtsConfig hw;
    const sim::BtsSimulator s(hw, inst);
    struct Row
    {
        const char* name;
        sim::Trace trace;
    };
    Row rows[] = {
        {"Tmult,a/slot", paper_trace("tmult", inst)},
        {"HELR", paper_trace("helr", inst)},
        {"ResNet-20", paper_trace("resnet", inst)},
        {"Sorting", paper_trace("sort", inst)},
    };
    printf("%-14s %12s %12s %10s\n", "app", "total", "bootstrap",
           "boot%");
    std::vector<std::pair<double, const char*>> shares;
    for (auto& row : rows) {
        const auto r = s.run(row.trace);
        const double share = 100.0 * r.boot_s / r.total_s;
        printf("%-14s %10.1fms %10.1fms %9.1f%%\n", row.name,
               r.total_s * 1e3, r.boot_s * 1e3, share);
        shares.emplace_back(share, row.name);
    }
    printf("\npaper shape: bootstrap dominates the microbenchmark and "
           "sorting;\nResNet-20 has the smallest bootstrap share.\n");
    std::stable_sort(shares.begin(), shares.end(),
                     [](const auto& x, const auto& y) {
                         return x.first > y.first;
                     });
    printf("model order, largest share first:");
    for (std::size_t i = 0; i < shares.size(); ++i) {
        printf("%s %s", i == 0 ? "" : " >", shares[i].second);
    }
    printf("\n");
    return 0;
}
