/**
 * @file
 * CKKS parameter set and the shared context (primes, NTT tables, bases).
 *
 * A CKKS instance (Section 2 / Table 2 of the paper) is defined by:
 *   - N     : polynomial degree (power of two),
 *   - L     : maximum multiplicative level; moduli q_0 .. q_L,
 *   - dnum  : decomposition number for generalized key-switching (Eq. 7),
 *   - k     : number of special primes, k = ceil((L+1)/dnum),
 *   - prime widths: q_0 (base, absorbs the final message), q_1..q_L
 *     (scale primes close to the scaling factor Delta), p_0..p_{k-1}
 *     (special primes).
 *
 * The security-relevant instances of the paper use N = 2^17; functional
 * tests use small insecure N (see runtime::functional_params in
 * runtime/graph_workloads.h). The context owns every per-prime NTT
 * table and hands out prime chains for each level.
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "math/ntt.h"
#include "rns/base_conv.h"
#include "rns/rns_base.h"
#include "rns/rns_poly.h"

namespace bts {

/** User-facing parameter choices for a CKKS instance. */
struct CkksParams
{
    std::size_t n = 1 << 12;  //!< polynomial degree N
    int max_level = 8;        //!< L
    int dnum = 2;             //!< decomposition number
    int q0_bits = 50;         //!< width of the base prime
    int scale_bits = 40;      //!< width of scale primes; Delta = 2^scale_bits
    int special_bits = 50;    //!< width of special primes
    int hamming_weight = 64;  //!< secret-key Hamming weight (sparse ternary)
    u64 seed = 42;            //!< deterministic RNG seed
};

/** Immutable shared state derived from CkksParams. */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams& params);

    const CkksParams& params() const { return params_; }
    std::size_t n() const { return params_.n; }
    int max_level() const { return params_.max_level; }
    int dnum() const { return params_.dnum; }
    /** Slice width alpha = ceil((L+1)/dnum); also the special-prime count. */
    int alpha() const { return alpha_; }
    int num_special() const { return alpha_; }
    double delta() const { return delta_; }

    /** q_0 .. q_L. */
    const std::vector<u64>& q_primes() const { return q_primes_; }
    /** p_0 .. p_{k-1}. */
    const std::vector<u64>& p_primes() const { return p_primes_; }

    /** Prime chain for a level-l polynomial: {q_0..q_l}. */
    std::vector<u64> level_primes(int level) const;

    /** Extended chain {q_0..q_l, p_0..p_{k-1}} used during key-switching. */
    std::vector<u64> extended_primes(int level) const;

    /** All primes {q_0..q_L, p_0..p_{k-1}} (the evk base). */
    const std::vector<u64>& full_primes() const { return full_primes_; }

    /** RNS base over {q_0..q_l}. */
    const RnsBase& q_base(int level) const;

    /** RNS base over the special primes. */
    const RnsBase& p_base() const { return p_base_; }

    /** NTT tables for one prime. */
    const NttTables& tables(u64 prime) const;

    /** NTT table pointers matching an arbitrary prime chain. */
    std::vector<const NttTables*> tables_for(
        const std::vector<u64>& primes) const;

    /** Table pointers matching a polynomial's own chain. */
    std::vector<const NttTables*> tables_for(const RnsPoly& poly) const;

    /**
     * Cached table pointers for {q_0..q_l} — the per-call vector builds
     * would otherwise be the last allocations on the rescale hot path.
     */
    const std::vector<const NttTables*>& level_tables(int level) const;

    /**
     * Key-switching slice j at level l: the half-open index range
     * [begin, end) into the q-prime chain (Eq. 7). Slices partition
     * {0..l} into ceil((l+1)/alpha) groups of up to alpha primes.
     */
    std::pair<int, int> slice_range(int slice, int level) const;

    /** Number of key-switching slices at level l. */
    int num_slices(int level) const;

    /** Galois exponent 5^r mod 2N of a rotation by @p r slots (Eq. 5);
     *  negative r rotates right. */
    u64 galois_exp_for_rotation(int r) const;

    /** Galois exponent 2N-1 of complex conjugation. */
    u64 galois_exp_conjugation() const;

    /**
     * [q_top]_{q_i}, precomputed for rescaling away the prime at chain
     * index @p top (1 <= top <= L, i < top) — the hottest CKKS path
     * must not recompute per-limb constants per call.
     */
    u64 rescale_q_mod(int top, int i) const;

    /** Shoup context for [q_top^{-1}]_{q_i} (same indexing). */
    const ShoupMul& rescale_inv(int top, int i) const;

    /** [P]_q for prime q (P = product of special primes). */
    u64 p_mod(u64 q) const;

    /** [P^{-1}]_q for prime q. */
    u64 p_inv_mod(u64 q) const;

    /** Cached base converter (built lazily, keyed by source/target). */
    const BaseConverter& converter(const std::vector<u64>& source,
                                   const std::vector<u64>& target) const;

    /** Total bit-length of P * Q (the security-determining quantity). */
    int log_pq_bits() const { return log_pq_bits_; }

  private:
    CkksParams params_;
    int alpha_;
    double delta_;
    std::vector<u64> q_primes_;
    std::vector<u64> p_primes_;
    std::vector<u64> full_primes_;
    std::vector<RnsBase> q_bases_; // index = level
    std::vector<std::vector<u64>> rescale_q_mod_;      // [top][i], i < top
    std::vector<std::vector<ShoupMul>> rescale_inv_;   // [top][i], i < top
    RnsBase p_base_;
    int log_pq_bits_;
    std::map<u64, std::unique_ptr<NttTables>> ntt_tables_;
    std::vector<std::vector<const NttTables*>> level_tables_; // index = level
    mutable std::mutex converters_mutex_; //!< guards converters_
    mutable std::map<std::pair<std::vector<u64>, std::vector<u64>>,
                     std::unique_ptr<BaseConverter>>
        converters_;
};

} // namespace bts
