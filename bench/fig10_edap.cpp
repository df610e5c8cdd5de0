/**
 * @file
 * Fig. 10 reproduction: bootstrapping time (broken down by op kind) and
 * EDAP as the scratchpad grows from 192MB to 1GB on INS-1.
 *
 * Expected shape: at 192MB ciphertext loads dominate (HMult/HRot share
 * drops to ~24%); performance and EDAP improve with capacity and then
 * saturate once the working set fits.
 */
#include <cstdio>

#include "sim/bootstrap_plan.h"
#include "sim/engine.h"

int
main()
{
    using namespace bts;
    const auto inst = hw::ins1();

    // A back-to-back bootstrapping workload (3 refreshes) exposes the
    // ct-cache behaviour across bootstraps.
    sim::TraceBuilder b("boot3/INS-1");
    int ct = b.fresh_id();
    for (int i = 0; i < 3; ++i) {
        ct = sim::append_bootstrap(b, inst, ct);
    }

    printf("=== Fig. 10: bootstrap time & EDAP vs scratchpad (INS-1) "
           "===\n");
    printf("%8s %10s %8s %8s %8s %8s %8s %12s\n", "SP(MB)", "boot(ms)",
           "HMult%", "HRot%", "PMult%", "HAdd%", "other%",
           "EDAP(J.s.mm2)");
    for (int mb = 192; mb <= 1024; mb += 64) {
        sim::BtsConfig hw;
        hw.scratchpad_bytes = static_cast<double>(mb) * (1 << 20);
        const sim::BtsSimulator s(hw, inst);
        const auto r = s.run(b.trace());

        auto share = [&](sim::HeOpKind kind) {
            const auto it = r.boot_by_kind.find(kind);
            return it == r.boot_by_kind.end()
                       ? 0.0
                       : 100.0 * it->second.total_s / r.boot_s;
        };
        const double hmult = share(sim::HeOpKind::kHMult);
        const double hrot = share(sim::HeOpKind::kHRot) +
                            share(sim::HeOpKind::kConj);
        const double pmult = share(sim::HeOpKind::kPMult);
        const double hadd = share(sim::HeOpKind::kHAdd);
        const double other = 100.0 - hmult - hrot - pmult - hadd;
        printf("%8d %10.1f %8.1f %8.1f %8.1f %8.1f %8.1f %12.4f\n", mb,
               r.boot_s / 3 * 1e3, hmult, hrot, pmult, hadd, other,
               r.edap);
    }
    printf("\npaper shape: HMult/HRot share grows with capacity (24%% "
           "at 192MB),\nEDAP falls then saturates near ~512MB.\n");
    return 0;
}
