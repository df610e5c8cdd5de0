/**
 * @file
 * Fig. 6 reproduction: amortized mult time per slot — BTS (simulated,
 * INS-1/2/3, 512MB scratchpad) vs the published Lattigo / 100x / F1 /
 * F1+ numbers.
 *
 * Expected shape: BTS wins by 3+ orders of magnitude over the CPU;
 * INS-2 is BTS's best instance; F1 is *slower* than the CPU once its
 * single-slot bootstrapping is amortized.
 */
#include <cstdio>

#include "baselines/published.h"
#include "runtime/apps/paper.h"
#include "sim/engine.h"

int
main()
{
    using namespace bts;
    printf("=== Fig. 6: T_mult,a/slot comparison ===\n");
    printf("%-12s %10s %16s %12s\n", "platform", "lambda",
           "Tmult,a/slot", "vs Lattigo");

    const double lattigo_ns = baselines::lattigo_cpu().tmult_a_slot_ns;
    for (const auto& b : baselines::all_baselines()) {
        printf("%-12s %10.0f %13.1f us %11.1fx\n", b.name.c_str(),
               b.lambda_bits, b.tmult_a_slot_ns / 1e3,
               lattigo_ns / b.tmult_a_slot_ns);
    }

    const sim::BtsConfig hw;
    for (const auto& inst : hw::table4_instances()) {
        const sim::BtsSimulator s(hw, inst);
        const auto r = s.run(runtime::apps::paper_trace("tmult", inst));
        printf("%-12s %10.1f %13.1f ns %11.0fx\n",
               ("BTS/" + inst.name).c_str(), inst.lambda(),
               r.tmult_a_slot_ns, lattigo_ns / r.tmult_a_slot_ns);
    }
    printf("\npaper: BTS best 45.5ns with INS-2 = 2,237x over Lattigo; "
           "F1+ 824x slower than BTS.\n");
    return 0;
}
