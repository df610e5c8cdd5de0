/**
 * @file
 * Table 5 reproduction: HELR logistic-regression training time per
 * iteration (batch 1024, 30 iterations) — BTS (simulated, INS-1/2/3)
 * vs the published Lattigo / 100x / F1 / F1+ numbers.
 *
 * Expected shape: BTS is ~3 orders of magnitude over the CPU and ~1
 * over the GPU; INS-2 is the best BTS instance.
 *
 * The trace priced here is the runtime graph application
 * runtime/apps/helr.h (paper() configuration, raw form) lowered with
 * lower_to_trace; its lowering is pinned by the golden fixtures in
 * tests/runtime/test_apps_pin.cpp, and the same circuit runs
 * functionally on real ciphertexts
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
    printf("=== Table 5: HELR training time per iteration ===\n");
    printf("%-12s %14s %12s\n", "platform", "time/iter", "speedup");
    const double cpu_ms = baselines::lattigo_cpu().helr_iter_ms;
    for (const auto& b : baselines::all_baselines()) {
        if (b.helr_iter_ms <= 0) continue;
        printf("%-12s %12.1fms %11.1fx\n", b.name.c_str(), b.helr_iter_ms,
               cpu_ms / b.helr_iter_ms);
    }
    const sim::BtsConfig hw;
    for (const auto& inst : hw::table4_instances()) {
        const sim::BtsSimulator s(hw, inst);
        const auto trace = runtime::apps::paper_trace("helr", inst);
        const auto r = s.run(trace);
        const double ms = r.total_s * 1e3 / 30;
        printf("%-12s %12.1fms %11.0fx   (%d bootstraps/30 iters)\n",
               ("BTS/" + inst.name).c_str(), ms, cpu_ms / ms,
               trace.bootstrap_count);
    }
    printf("\npaper: BTS/INS-2 28.4ms = 1,306x over Lattigo, 27x over "
           "the GPU, 5.2x over F1+.\n");
    return 0;
}
