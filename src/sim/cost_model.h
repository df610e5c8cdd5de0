/**
 * @file
 * Per-op cost model: epoch-exact resource occupancy of every primitive
 * HE op on the BTS microarchitecture (Sections 4.1 and 5).
 *
 * Each op is decomposed per the Fig. 3a dataflow:
 *  - (i)NTT passes run on the NTTU array at one residue polynomial per
 *    epoch (N log N / (2 n_PE) cycles);
 *  - BConv runs on the MMAU at l_sub MACs per PE per cycle, partially
 *    overlapped with the producing iNTT (Eq. 11) when enabled;
 *  - element-wise work (tensor product, evk inner product, SSA) runs on
 *    the per-PE ModMult/ModAdd at 0.6 GHz;
 *  - evk slices stream from HBM; the op cannot finish before its evk.
 *
 * An op's cost depends only on its (kind, level), so the model prices
 * every pair once, at construction, into one table: the simulator's
 * schedule and the resource analyzer's totals both read that table.
 */
#pragma once

#include <vector>

#include "common/check.h"
#include "hwparams/instance.h"
#include "sim/hw_config.h"
#include "sim/op_trace.h"

namespace bts::sim {

/** Resource occupancy of one op (seconds / bytes). */
struct OpCost
{
    double ntt_s = 0;      //!< NTTU array busy time
    double bconv_s = 0;    //!< MMAU busy time
    double elem_s = 0;     //!< element-wise unit busy time
    double compute_s = 0;  //!< critical-path compute latency
    double evk_bytes = 0;  //!< evaluation-key stream
    double noc_bytes = 0;  //!< PE-PE traffic beyond hidden transposes
    double ct_bytes = 0;   //!< operand footprint (cache-managed)
    double pt_bytes = 0;   //!< plaintext operand footprint
};

/** The OpCost table of a fixed (hardware, instance) pair. */
class CostModel
{
  public:
    /** Prices every (kind, level) pair, levels 0..inst.max_level. */
    CostModel(const BtsConfig& hw, const hw::CkksInstance& inst);

    /** Cost of one op at its recorded level (throws for a level
     *  outside the instance). */
    const OpCost&
    op_cost(const HeOp& op) const
    {
        BTS_CHECK(op.level >= 0 && op.level <= inst_.max_level,
                  "op level outside the instance");
        return table_[static_cast<std::size_t>(op.kind) * levels_ +
                      static_cast<std::size_t>(op.level)];
    }

    /** Number of (i)NTT residue-polynomial passes in a key-switch. */
    double keyswitch_ntt_passes(int level) const;

    /** MAC count of the key-switch BConvs (ModUp + ModDown). */
    double keyswitch_bconv_macs(int level) const;

    const BtsConfig& hw() const { return hw_; }
    const hw::CkksInstance& instance() const { return inst_; }

  private:
    /** Seconds for @p passes residue-poly NTT passes. */
    double ntt_time(double passes) const;
    /** Seconds for @p macs MMAU multiply-accumulates. */
    double bconv_time(double macs) const;
    /** Seconds for @p mults element-wise modular multiplies. */
    double elem_time(double mults) const;

    /** Fill in compute_s from the resource components. */
    void finalize(OpCost& c) const;

    /** The table entry of (@p kind, @p level). */
    OpCost price(HeOpKind kind, int level) const;

    const BtsConfig& hw_;
    const hw::CkksInstance& inst_;
    std::size_t levels_; //!< max_level + 1: the table's row length
    std::vector<OpCost> table_; //!< [kind * levels_ + level]
};

} // namespace bts::sim
