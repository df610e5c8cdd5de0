#include "sim/engine.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "sim/energy.h"

namespace bts::sim {

BtsSimulator::BtsSimulator(const BtsConfig& hw, const hw::CkksInstance& inst)
    : hw_(hw), inst_(inst), model_(hw_, inst_)
{}

double
BtsSimulator::cache_capacity_bytes() const
{
    // Reservations: the op-in-flight temporary working set plus a
    // streaming buffer for the prefetched evk slice (Section 5.3).
    const double evk_stream = inst_.evk_bytes(inst_.max_level) * 0.25;
    return hw_.scratchpad_bytes - inst_.temp_bytes() - evk_stream;
}

SimResult
BtsSimulator::run(const Trace& trace) const
{
    SimResult r;
    r.cache_capacity_bytes = std::max(0.0, cache_capacity_bytes());
    SoftwareCache cache(r.cache_capacity_bytes);

    std::array<KindStats, kHeOpKindCount> by_kind{};
    std::array<KindStats, kHeOpKindCount> boot_by_kind{};
    double hbm_busy_s = 0;
    const double hbm_bw = hw_.hbm_effective();

    for (const auto& op : trace.ops) {
        const OpCost& c = model_.op_cost(op);

        // Software cache: operands either hit on-chip or stream in.
        double miss_bytes = 0;
        const double per_input =
            op.inputs.empty() ? 0.0
                              : c.ct_bytes / static_cast<double>(
                                                 op.inputs.size());
        for (int id : op.inputs) {
            miss_bytes += cache.access(id, per_input);
        }
        if (c.pt_bytes > 0) {
            // Plaintext operands use negative ids offset to avoid
            // colliding with ciphertext ids; reuse op output space.
            miss_bytes += cache.access(-1000000 - op.output, c.pt_bytes);
        }
        if (op.output >= 0) {
            cache.insert(op.output,
                         inst_.ct_bytes(std::max(0, op.level)));
        }

        const double mem_s = (c.evk_bytes + miss_bytes) / hbm_bw;
        // Double-buffered evk prefetch: an op's latency is the max of
        // its compute pipeline and its memory streams (Fig. 8).
        const double op_s = std::max(c.compute_s, mem_s);

        r.total_s += op_s;
        r.op_count += 1;
        r.hbm_bytes += c.evk_bytes + miss_bytes;
        r.evk_bytes += c.evk_bytes;
        r.ntt_busy_s += c.ntt_s;
        r.bconv_busy_s += c.bconv_s;
        r.elem_busy_s += c.elem_s;
        hbm_busy_s += mem_s;

        const auto kind = static_cast<std::size_t>(op.kind);
        by_kind[kind].count += 1;
        by_kind[kind].total_s += op_s;
        if (op.in_bootstrap) {
            r.boot_s += op_s;
            boot_by_kind[kind].count += 1;
            boot_by_kind[kind].total_s += op_s;
        }
    }
    // The maps list exactly the kinds the trace ran.
    for (int k = 0; k < kHeOpKindCount; ++k) {
        if (by_kind[k].count > 0) {
            r.by_kind.emplace(static_cast<HeOpKind>(k), by_kind[k]);
        }
        if (boot_by_kind[k].count > 0) {
            r.boot_by_kind.emplace(static_cast<HeOpKind>(k), boot_by_kind[k]);
        }
    }

    if (r.total_s > 0) {
        r.hbm_util = hbm_busy_s / r.total_s;
        r.ntt_util = r.ntt_busy_s / r.total_s;
        r.bconv_util = r.bconv_busy_s / r.total_s;
    }
    r.cache_hit_rate = cache.hit_rate();

    const EnergyModel energy(hw_);
    r.energy_j = energy.energy_j(r);
    r.edap = r.energy_j * r.total_s * BtsConfig::total_area_mm2();

    if (inst_.usable_levels() > 0) {
        r.tmult_a_slot_ns = r.total_s / inst_.usable_levels() * 2.0 /
                            static_cast<double>(inst_.n) * 1e9;
    }
    return r;
}

} // namespace bts::sim
