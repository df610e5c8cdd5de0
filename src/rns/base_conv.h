/**
 * @file
 * Fast (approximate) RNS base conversion — BConv, Eq. 9 of the paper.
 *
 * BConv maps residues over a source base C to residues over a disjoint
 * target base B without leaving RNS:
 *
 *   BConv_{C->B}(x) = { [ sum_j [x_j * q_hat_j^{-1}]_{q_j} * q_hat_j ]_p }
 *
 * The sum may exceed Q by a small multiple (the classic "approximate"
 * base conversion); CKKS noise analysis absorbs that q-overflow. The
 * two-part structure (per-source-prime scaling, then a coefficient-wise
 * multiply-accumulate across source primes) is exactly what the BTS
 * BConvU implements in hardware (ModMult + MMAU, Section 5.2).
 */
#pragma once

#include <vector>

#include "common/types.h"
#include "math/mod_arith.h"
#include "rns/rns_base.h"
#include "rns/rns_poly.h"

namespace bts {

/** Precomputed tables for converting from a fixed source base. */
class BaseConverter
{
  public:
    /**
     * Build a converter from @p source to @p target (bases must be
     * disjoint). Tables: q_hat_inv_j (first part, per source prime) and
     * q_hat_j mod p_i (second part, source x target matrix).
     */
    BaseConverter(const RnsBase& source, const RnsBase& target);

    const RnsBase& source() const { return source_; }
    const RnsBase& target() const { return target_; }

    /**
     * Convert polynomial @p input (coefficient domain, components over
     * exactly the source primes) to the target base.
     */
    RnsPoly convert(const RnsPoly& input) const;

    /**
     * Convert, emulating the BTS l_sub-grouped accumulation (Eq. 11):
     * mathematically identical to convert(); exercised by tests to pin
     * the equivalence the hardware overlap relies on.
     */
    RnsPoly convert_grouped(const RnsPoly& input, int l_sub) const;

  private:
    /** Part 1 (ModMult in the BConvU): scaled row j = [x_j *
     *  q_hat_inv_j]_{q_j}, limb-major like RnsPoly storage. */
    void scale_input(const RnsPoly& input, u64* scaled) const;

    RnsBase source_;
    RnsBase target_;
    std::vector<std::vector<u64>> hat_mod_; // [target i][source j]
    // Hot-path reducers, built once per converter so the tiled loops
    // never reconstruct them (each costs a 128-bit division). The
    // Shoup contexts carry q_hat_inv_j themselves (member w).
    std::vector<ShoupMul> hat_inv_shoup_;   // per source prime j
    std::vector<Barrett> target_barrett_;   // per target prime i
    std::size_t terms_ = 0; //!< lazy_sum_terms of the Part-2 products
};

} // namespace bts
