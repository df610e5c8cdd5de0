/**
 * @file
 * Table 3 reproduction: per-component area and peak power of BTS.
 * These are the calibrated hardware-model constants (see
 * sim/hw_config.h) — printed with their totals as a consistency check
 * against the paper's 373.6 mm^2 / 163.2 W.
 */
#include <cstdio>

#include "sim/hw_config.h"

int
main()
{
    using namespace bts::sim;
    printf("=== Table 3: BTS area & peak power (7nm model) ===\n");
    printf("%-24s %12s %12s\n", "Component", "Area (mm^2)", "Power (W)");
    for (const auto& c : BtsConfig::table3()) {
        printf("%-24s %12.2f %12.2f\n", c.name.c_str(), c.area_mm2,
               c.power_w);
    }
    printf("%-24s %12.1f %12.1f   (paper: 373.6 / 163.2)\n", "Total",
           BtsConfig::total_area_mm2(), BtsConfig::total_peak_power_w());

    const BtsConfig hw;
    printf("\nDerived microarchitecture constants:\n");
    printf("  PEs: %d (%d x %d grid) @ %.1f GHz\n", hw.n_pe, hw.pe_rows,
           hw.pe_cols, hw.freq_hz / 1e9);
    printf("  epoch (N=2^17): %.0f cycles = %.0f ns\n",
           hw.epoch_cycles(1ULL << 17), hw.epoch_seconds(1ULL << 17) * 1e9);
    printf("  HBM: %.1f TB/s aggregate (x%.2f efficiency)\n",
           hw.hbm_bytes_per_s / 1e12, hw.hbm_efficiency);
    printf("  scratchpad: %.0f MB @ %.1f TB/s\n",
           hw.scratchpad_bytes / (1 << 20),
           hw.scratchpad_bytes_per_s / 1e12);
    printf("  PE-PE NoC bisection: %.1f TB/s\n",
           hw.noc_bisection_bytes_per_s / 1e12);
    return 0;
}
