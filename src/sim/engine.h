/**
 * @file
 * The BTS trace simulator: schedules a trace of HE ops onto the modeled
 * hardware, accounting for compute occupancy, evk streaming, software
 * cache behaviour and energy (Section 6.2's methodology: ops become
 * dataflow tasks scheduled at epoch granularity, with evk prefetch
 * overlapped against compute and temporary-data hold time minimized).
 *
 * A run allocates nothing per op: each op's cost is a lookup into the
 * CostModel's (kind, level) table, the software cache is a flat slot
 * array, and the per-kind totals accumulate in arrays that fill
 * SimResult's maps once, after the last op.
 */
#pragma once

#include <map>

#include "sim/cost_model.h"
#include "sim/scratchpad.h"

namespace bts::sim {

/** Aggregate per-kind timing. */
struct KindStats
{
    int count = 0;
    double total_s = 0;
};

/** Everything a run produces. */
struct SimResult
{
    double total_s = 0;
    double boot_s = 0; //!< time inside bootstrap-tagged ops
    int op_count = 0;

    std::map<HeOpKind, KindStats> by_kind;
    std::map<HeOpKind, KindStats> boot_by_kind; //!< Fig. 10 breakdown

    double hbm_bytes = 0;
    double evk_bytes = 0;
    double hbm_util = 0; //!< fraction of total_s the HBM was busy

    double ntt_busy_s = 0;
    double bconv_busy_s = 0;
    double elem_busy_s = 0;
    double ntt_util = 0;
    double bconv_util = 0;

    double cache_hit_rate = 0;
    double cache_capacity_bytes = 0;

    double energy_j = 0;
    /** Energy-delay-area product (J * s * mm^2), Fig. 10's metric. */
    double edap = 0;

    /** Amortized per-slot throughput for a T_mult microbench trace:
     *  total_s / usable_levels * 2/N (Eq. 8). */
    double tmult_a_slot_ns = 0;
};

/** Sequential epoch-granularity simulator. */
class BtsSimulator
{
  public:
    BtsSimulator(const BtsConfig& hw, const hw::CkksInstance& inst);

    /** Run one trace start-to-finish. */
    SimResult run(const Trace& trace) const;

    const CostModel& cost_model() const { return model_; }

    /** Scratchpad bytes left for the ciphertext cache after the
     *  temporary-data and evk stream-buffer reservations. */
    double cache_capacity_bytes() const;

  private:
    BtsConfig hw_;
    hw::CkksInstance inst_;
    CostModel model_;
};

} // namespace bts::sim
