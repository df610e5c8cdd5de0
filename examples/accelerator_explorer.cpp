/**
 * @file
 * Accelerator explorer: drive the BTS simulator interactively-ish —
 * pick an instance, print its derived parameters, run the
 * T_mult microbenchmark and the three applications, and show how the
 * scratchpad size moves the needle. The one-stop tour of the
 * architecture side of this repository.
 */
#include <cstdio>

#include "baselines/published.h"
#include "hwparams/explorer.h"
#include "runtime/apps/paper.h"
#include "sim/engine.h"
#include "sim/timeline.h"

int
main(int argc, char** argv)
{
    using namespace bts;
    using runtime::apps::paper_trace;
    // Optionally select the instance: 1, 2 or 3 (default 2).
    int pick = argc > 1 ? std::atoi(argv[1]) : 2;
    if (pick < 1 || pick > 3) pick = 2;
    const auto inst = hw::table4_instances()[pick - 1];

    printf("==== %s: N=%zu, L=%d, dnum=%d ====\n", inst.name.c_str(),
           inst.n, inst.max_level, inst.dnum);
    printf("log PQ %.0f bits -> lambda = %.1f\n", inst.log_pq(),
           inst.lambda());
    printf("ct %.0f MiB | evk %.0f MiB | temp %.0f MB | usable levels "
           "%d\n",
           inst.ct_bytes(inst.max_level) / (1 << 20),
           inst.evk_bytes(inst.max_level) / (1 << 20),
           inst.temp_bytes() / 1e6, inst.usable_levels());
    printf("min NTTU (Eq. 10): %.0f | min-bound Tmult,a/slot: %.1f ns\n",
           hw::min_nttu(inst), hw::min_bound_tmult_ns(inst));

    const sim::BtsConfig hw;
    const sim::BtsSimulator s(hw, inst);

    printf("\n-- one max-level HMult --\n");
    const auto tl = sim::hmult_timeline(hw, inst);
    printf("latency %.1f us (HBM util %.0f%%, NTTU %.0f%%, BConvU "
           "%.0f%%)\n",
           tl.total_ns / 1e3, tl.hbm_util * 100, tl.nttu_busy_frac * 100,
           tl.bconv_busy_frac * 100);

    printf("\n-- workloads on the 512MB-scratchpad BTS --\n");
    const sim::Trace tmult = paper_trace("tmult", inst);
    const auto mb = s.run(tmult);
    printf("Tmult,a/slot: %.1f ns (bootstrap %.1f ms, ct-cache hit "
           "%.0f%%)\n",
           mb.tmult_a_slot_ns, mb.boot_s * 1e3, mb.cache_hit_rate * 100);
    const auto helr_trace = paper_trace("helr", inst);
    const auto helr = s.run(helr_trace);
    printf("HELR: %.1f ms/iter (%d bootstraps/30 iters)\n",
           helr.total_s * 1e3 / 30, helr_trace.bootstrap_count);
    const auto rn_trace = paper_trace("resnet", inst);
    const auto rn = s.run(rn_trace);
    printf("ResNet-20: %.2f s (%d bootstraps) -> %.0fx over the CPU\n",
           rn.total_s, rn_trace.bootstrap_count,
           baselines::lattigo_cpu().resnet20_s / rn.total_s);

    printf("\n-- scratchpad sensitivity (Tmult,a/slot) --\n");
    for (int mbytes : {256, 384, 512, 1024, 2048}) {
        sim::BtsConfig cfg;
        cfg.scratchpad_bytes = static_cast<double>(mbytes) * (1 << 20);
        const auto r = sim::BtsSimulator(cfg, inst).run(tmult);
        printf("  %4d MB: %.1f ns (energy %.2f J)\n", mbytes,
               r.tmult_a_slot_ns, r.energy_j);
    }
    return 0;
}
