/**
 * @file
 * Fig. 9 reproduction: the ablation ladder —
 *   small BTS (Lattigo instance, temp-only scratchpad, no BConv/iNTT
 *   overlap) -> switch to INS-1 -> 512MB scratchpad -> overlap on
 *   (full BTS) -> 2TB/s HBM.
 *
 * Expected shape: each step helps; the scratchpad step is the largest;
 * doubling HBM helps only ~1.26x because compute starts to bind.
 */
#include <cstdio>

#include "baselines/published.h"
#include "runtime/apps/paper.h"
#include "sim/engine.h"

namespace {

double
run_tmult(const bts::sim::BtsConfig& hw, const bts::hw::CkksInstance& inst)
{
    const bts::sim::BtsSimulator s(hw, inst);
    return s.run(bts::runtime::apps::paper_trace("tmult", inst))
        .tmult_a_slot_ns;
}

} // namespace

int
main()
{
    using namespace bts;
    const double lattigo_ns = baselines::lattigo_cpu().tmult_a_slot_ns;
    printf("=== Fig. 9: ablation of BTS features (Tmult,a/slot) ===\n");
    printf("%-44s %12s %10s\n", "configuration", "Tmult", "speedup");
    printf("%-44s %9.1f us %9.1fx\n", "Lattigo (CPU)", lattigo_ns / 1e3,
           1.0);

    // 1. Small BTS: Lattigo-like instance, scratchpad just big enough
    //    for temporaries, no BConv/iNTT overlap.
    const auto lat = hw::ins_lattigo();
    sim::BtsConfig small_hw;
    small_hw.overlap_bconv_intt = false;
    small_hw.scratchpad_bytes =
        lat.temp_bytes() + lat.evk_bytes(lat.max_level) * 0.25;
    double t = run_tmult(small_hw, lat);
    printf("%-44s %9.1f ns %9.0fx\n",
           "small BTS (INS-Lattigo, temp-only SP)", t, lattigo_ns / t);

    // 2. Switch the instance to INS-1.
    const auto i1 = hw::ins1();
    sim::BtsConfig step2 = small_hw;
    step2.scratchpad_bytes =
        i1.temp_bytes() + i1.evk_bytes(i1.max_level) * 0.25;
    t = run_tmult(step2, i1);
    printf("%-44s %9.1f ns %9.0fx\n", "small BTS (INS-1)", t,
           lattigo_ns / t);

    // 3. Grow the scratchpad to 512MB.
    sim::BtsConfig step3 = step2;
    step3.scratchpad_bytes = 512.0 * (1 << 20);
    t = run_tmult(step3, i1);
    printf("%-44s %9.1f ns %9.0fx\n", "+ 512MB scratchpad", t,
           lattigo_ns / t);

    // 4. Enable BConv/iNTT overlap: the full BTS.
    sim::BtsConfig step4 = step3;
    step4.overlap_bconv_intt = true;
    t = run_tmult(step4, i1);
    printf("%-44s %9.1f ns %9.0fx\n", "+ BConv/iNTT overlap (= BTS)", t,
           lattigo_ns / t);

    // 5. 2TB/s HBM variant.
    sim::BtsConfig step5 = step4;
    step5.hbm_bytes_per_s = 2.0e12;
    const double t5 = run_tmult(step5, i1);
    printf("%-44s %9.1f ns %9.0fx  (%.2fx over BTS)\n", "+ 2TB/s HBM", t5,
           lattigo_ns / t5, t / t5);

    printf("\npaper ladder: 379x -> 568x -> 1805x -> 2044x -> 2584x "
           "(1.26x for 2TB/s)\n");
    return 0;
}
