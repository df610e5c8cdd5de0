/**
 * @file
 * Table 6 reproduction: ResNet-20 inference and 2^14-element sorting on
 * BTS (simulated, INS-1/2/3) vs the published CPU implementations, with
 * per-instance bootstrap counts.
 *
 * Expected shape: thousands-fold speedups; the *smaller-dnum* INS-1 is
 * best for both apps (bootstrapping is a minor share, so HE-op
 * complexity dominates — Section 6.3 "parameter selection in
 * retrospect"); bootstrap counts fall as usable levels grow.
 *
 * The traces priced here are the runtime graph applications
 * runtime/apps/{resnet,sort}.h (paper() configurations, raw form)
 * lowered with lower_to_trace; their lowering is pinned by the golden
 * fixtures in tests/runtime/test_apps_pin.cpp, and the same circuits
 * run functionally on real ciphertexts
 * (tests/runtime/test_apps_functional.cpp). See docs/APPLICATIONS.md.
 */
#include <cstdio>

#include "baselines/published.h"
#include "runtime/apps/paper.h"
#include "sim/engine.h"

int
main()
{
    using namespace bts;
    const auto cpu = baselines::lattigo_cpu();
    const sim::BtsConfig hw;

    printf("=== Table 6: ResNet-20 inference ===\n");
    printf("%-12s %12s %10s %8s\n", "platform", "time", "speedup",
           "#boots");
    printf("%-12s %10.0f s %9.1fx %8s\n", "CPU [59]", cpu.resnet20_s, 1.0,
           "-");
    for (const auto& inst : hw::table4_instances()) {
        const sim::BtsSimulator s(hw, inst);
        const auto trace = runtime::apps::paper_trace("resnet", inst);
        const auto r = s.run(trace);
        printf("%-12s %10.2f s %9.0fx %8d\n",
               ("BTS/" + inst.name).c_str(), r.total_s,
               cpu.resnet20_s / r.total_s, trace.bootstrap_count);
    }
    printf("paper: 1.91/2.02/3.09 s, 5556/5240/3427x, boots 53/22/19\n");

    printf("\n=== Table 6: sorting 2^14 elements ===\n");
    printf("%-12s %12s %10s %8s\n", "platform", "time", "speedup",
           "#boots");
    printf("%-12s %10.0f s %9.1fx %8s\n", "CPU [42]", cpu.sorting_s, 1.0,
           "-");
    for (const auto& inst : hw::table4_instances()) {
        const sim::BtsSimulator s(hw, inst);
        const auto trace = runtime::apps::paper_trace("sort", inst);
        const auto r = s.run(trace);
        printf("%-12s %10.1f s %9.0fx %8d\n",
               ("BTS/" + inst.name).c_str(), r.total_s,
               cpu.sorting_s / r.total_s, trace.bootstrap_count);
    }
    printf("paper: 15.6/18.8/25.2 s, 1482/1226/915x, boots 521/306/229\n");
    return 0;
}
