/**
 * @file
 * Table 1 reproduction: the qualitative comparison of HE acceleration
 * platforms — bootstrappability, refreshed slots per bootstrap,
 * parallelization strategy, and FHE multiplicative throughput.
 */
#include <cstdio>

#include "baselines/published.h"
#include "hwparams/explorer.h"
#include "runtime/apps/paper.h"
#include "sim/engine.h"

int
main()
{
    using namespace bts;
    printf("=== Table 1: prior HE acceleration works vs BTS ===\n");
    printf("%-10s %-10s %12s %10s %14s\n", "work", "platform",
           "bootstrap", "slots", "FHE mult/s");

    auto thruput = [](double tmult_ns) {
        // Reciprocal of the amortized per-slot time = fully-packed
        // multiplicative throughput.
        return 1e9 / tmult_ns;
    };

    for (const auto& b : baselines::all_baselines()) {
        printf("%-10s %-10s %12s %10d %14.2g\n", b.name.c_str(),
               b.platform.substr(0, 10).c_str(),
               b.bootstrappable
                   ? (b.refreshed_slots == 1 ? "single-slot" : "yes")
                   : "no",
               b.refreshed_slots, thruput(b.tmult_a_slot_ns));
    }

    // BTS: coefficient-level parallelism, fully packed bootstrapping.
    const sim::BtsConfig hw;
    const auto inst = hw::ins2();
    const auto r = sim::BtsSimulator(hw, inst).run(
        runtime::apps::paper_trace("tmult", inst));
    printf("%-10s %-10s %12s %10zu %14.2g\n", "BTS", "ASIC (7nm)", "yes",
           inst.slots(), thruput(r.tmult_a_slot_ns));
    printf("\nparallelism: FPGA/F1 works exploit rPLP; BTS exploits CLP "
           "(Section 4.3;\nsee bench/ablation_parallelism for the "
           "utilization argument).\n");
    printf("paper: BTS 20M mult/s vs F1 4K, Lattigo 6-10K, GPU 0.1-1M.\n");
    return 0;
}
