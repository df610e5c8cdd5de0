/**
 * @file
 * Parameter-space exploration (Section 3 of the paper).
 *
 * Reproduces the three analytic results that drive the BTS design:
 *  - Fig. 1: maximum level L and evk size as functions of dnum for each
 *    ring degree N at the 128-bit security target;
 *  - Fig. 2: the realistic minimum bound of T_mult,a/slot (Eq. 8) under
 *    a fixed off-chip bandwidth, assuming compute fully hidden behind
 *    evk streaming and all ciphertexts on-chip (Section 3.3-3.4);
 *  - Fig. 3b: the computational-complexity breakdown of HMult
 *    (BConv / NTT / iNTT / others) across dnum values;
 *  - Eq. 10: the minimum required NTTU count.
 */
#pragma once

#include <vector>

#include "hwparams/instance.h"
#include "hwparams/security.h"

namespace bts::hw {

/** One point of the Fig. 2 sweep. */
struct SweepPoint
{
    CkksInstance instance;
    double lambda = 0;
    double tmult_a_slot_ns = 0; //!< minimum-bound amortized mult per slot
};

/** Fig. 1a: the maximum L meeting the security target for (n, dnum). */
int max_level_for(std::size_t n, int dnum,
                  double lambda_target = kTargetLambda, int q0_bits = 60,
                  int scale_bits = 50, int special_bits = 60);

/** Fig. 1 "Max dnum" table: largest dnum (k == 1) still above target. */
int max_dnum_for(std::size_t n, double lambda_target = kTargetLambda);

/**
 * Minimum-bound amortized multiplication time per slot (Eq. 8), with
 * every HMult/HRot lower-bounded by its evk load time at @p hbm_gbps
 * aggregate bandwidth. The bootstrapping key-switches are those of the
 * simulated plan, sim::append_bootstrap.
 */
double min_bound_tmult_ns(const CkksInstance& inst,
                          double hbm_bytes_per_s = 1.0e12);

/** Number of evk-bearing ops (HMult + HRot + conj) in one bootstrap. */
int bootstrap_keyswitch_count(const CkksInstance& inst);

/** Total evk bytes streamed by one bootstrapping (levels descending). */
double bootstrap_evk_bytes(const CkksInstance& inst);

/** Full Fig. 2 sweep over N in {2^15..2^18} and all feasible dnum. */
std::vector<SweepPoint> fig2_sweep(double hbm_bytes_per_s = 1.0e12);

/** Fig. 3b: relative complexity of HMult components at max level. */
struct ComplexityBreakdown
{
    double bconv = 0;  //!< fraction of multiplies in BConv
    double ntt = 0;    //!< fraction in forward NTT
    double intt = 0;   //!< fraction in inverse NTT
    double others = 0; //!< element-wise mults etc.
};
ComplexityBreakdown hmult_complexity(const CkksInstance& inst);

/** Eq. 10: minimum fully-pipelined NTTU count for the instance. */
double min_nttu(const CkksInstance& inst, double freq_hz = 1.2e9,
                double hbm_bytes_per_s = 1.0e12);

/**
 * Section 4.3: parallelization-strategy analysis. With
 * residue-polynomial-level parallelism (rPLP, the F1 approach), PEs are
 * partitioned among the (l+1) residue polynomials live at level l; the
 * fluctuating level leaves partitions idle. Coefficient-level
 * parallelism (CLP, the BTS choice) distributes the N coefficients, so
 * utilization is level-independent.
 */
struct ParallelismPoint
{
    int level = 0;
    double rplp_utilization = 0; //!< fraction of PEs doing useful work
    double clp_utilization = 0;
};

/** PE utilization of both strategies at every level of the instance. */
std::vector<ParallelismPoint> parallelism_comparison(
    const CkksInstance& inst, int n_pe = 2048);

/** Average rPLP utilization over a full level descent (the load
 *  imbalance the paper's Section 4.3 calls out). */
double rplp_average_utilization(const CkksInstance& inst, int n_pe = 2048);

} // namespace bts::hw
