/**
 * @file
 * Negacyclic Number Theoretic Transform (NTT) over Z_q[X]/(X^N + 1).
 *
 * Polynomial multiplication in the CKKS ring is a negacyclic convolution;
 * the NTT turns it into an element-wise product (Section 4.1 of the
 * paper). This implementation uses the standard merged-twiddle radix-2
 * decimation algorithm with Shoup multiplication and twiddle factors (odd
 * powers of the primitive 2N-th root of unity psi) stored in bit-reversed
 * order, so both directions run in O(N log N) with unit-stride inner
 * loops.
 *
 * The butterfly core uses Harvey-style lazy reduction:
 *  - forward (DIT) butterflies keep coefficients in [0, 4q): each
 *    butterfly pays ONE branchless conditional subtraction (x -= 2q if
 *    x >= 2q) on its X input and a lazy Shoup product in [0, 2q) on its
 *    Y input, instead of a fully-reduced add_mod/sub_mod pair;
 *  - inverse (GS) butterflies work in [0, 2q);
 *  - the canonicalizing correction is folded into the LAST stage (no
 *    extra pass), and N^{-1} is folded into the last inverse stage's
 *    twiddle constants, so the inverse has no scaling tail loop at all.
 * This requires q < 2^62 so the lazy domain fits a 64-bit word
 * (enforced via kMaxModulusBits); all lazy values then stay below 2^63.
 *
 * forward_lazy() skips the final canonicalization and returns residues
 * in [0, 2q) for consumers that reduce anyway (Barrett pointwise
 * products, fused subtract-multiply chains) — the correction is paid
 * once per chain, not once per op.
 *
 * The pre-Harvey fully-reduced scalar path is kept verbatim as
 * forward_oracle()/inverse_oracle(): the differential test oracle.
 *
 * When built with -DBTS_USE_AVX2=ON (and an AVX2-capable CPU) the
 * butterfly inner loops additionally dispatch to 4-wide intrinsics
 * kernels; results are bit-identical to the scalar lazy path.
 */
#pragma once

#include <vector>

#include "common/types.h"
#include "math/mod_arith.h"

namespace bts {

/** Precomputed tables for one (prime, N) pair. */
class NttTables
{
  public:
    /**
     * Build tables for degree @p n (power of two) and modulus @p prime
     * (must satisfy prime == 1 mod 2n and fit kMaxModulusBits, the
     * lazy-domain bound). Twiddle power chains are built with a Barrett
     * reducer — no 128-bit division per entry.
     */
    NttTables(std::size_t n, u64 prime);

    std::size_t n() const { return n_; }
    u64 modulus() const { return prime_; }
    u64 psi() const { return psi_; }

    /** In-place forward negacyclic NTT; output canonical in [0, q),
     *  bit-reversed order. */
    void forward(u64* data) const;

    /** In-place forward NTT with lazy output in [0, 2q) (bit-reversed
     *  order; same residues as forward() mod q). Only consumers that
     *  tolerate [0, 2q) inputs — Barrett products, ShoupMul::mul, the
     *  lazy-aware RnsPoly ops — may read the result. */
    void forward_lazy(u64* data) const;

    /** In-place inverse negacyclic NTT; input in bit-reversed order,
     *  output canonical (N^{-1} folded into the last stage). Accepts
     *  lazy inputs in [0, 2q). */
    void inverse(u64* data) const;

    // ----- stage-granular entry points (coefficient-level parallelism) --
    // A radix-2 transform is log2(N) stages of N/2 independent
    // butterflies; the batch drivers below split each stage across
    // lanes when there are fewer limbs than threads (the paper's PE
    // mapping, Section 4.3). Butterflies are indexed 0..N/2-1 in stage
    // order; any partition of that range computes the same bits.

    /** Forward-stage butterflies [b_begin, b_end) for stage @p m
     *  (m = 1, 2, 4, ..., N/2 in execution order). The final stage
     *  (m == N/2) canonicalizes, or reduces only to [0, 2q) when
     *  @p lazy_2q is set — matching forward()/forward_lazy(). */
    void forward_stage(u64* data, std::size_t m, std::size_t b_begin,
                       std::size_t b_end, bool lazy_2q = false) const;

    /** Inverse-stage butterflies [b_begin, b_end) for stage @p m
     *  (m = N, N/2, ..., 2 in execution order). The final stage (m == 2)
     *  applies the fused N^{-1} twiddles and canonicalizes. */
    void inverse_stage(u64* data, std::size_t m, std::size_t b_begin,
                       std::size_t b_end) const;

    // ----- differential-test oracles ------------------------------------
    // The seed implementation: fully-reduced Shoup butterflies with
    // branchy add_mod/sub_mod and a serial N^{-1} tail loop. Kept (and
    // kept slow) as the bit-exactness reference for the lazy core.

    /** Reference forward transform (fully reduced each butterfly). */
    void forward_oracle(u64* data) const;

    /** Reference inverse transform (serial N^{-1} tail loop). */
    void inverse_oracle(u64* data) const;

    /** Number of butterfly operations one transform performs. */
    std::size_t butterfly_count() const { return n_ / 2 * log_n_; }

  private:
    std::size_t n_;
    int log_n_;
    u64 prime_;
    u64 psi_;   // primitive 2n-th root of unity
    u64 n_inv_; // n^{-1} mod prime

    std::vector<ShoupMul> psi_br_;     // psi powers, bit-reversed order
    std::vector<ShoupMul> psi_inv_br_; // inverse psi powers, bit-reversed
    ShoupMul inv_n_;   // n^{-1}: X-side constant of the fused last stage
    ShoupMul inv_n_w_; // psi_inv_br_[1].w * n^{-1}: its Y-side twiddle
};

/**
 * Batch forward NTT over @p count limbs stored at @p stride words apart
 * in one flat buffer (limb i occupies data[i*stride .. i*stride+N)).
 *
 * Scheduling: with at least as many limbs as lanes (or a small N), each
 * limb transforms whole on one lane — identical to the per-limb path.
 * With fewer limbs than lanes the transform runs stage by stage, each
 * stage tiled over (limb x butterfly-block) so utilization stays full
 * at any chain length. Both schedules are bit-exact.
 *
 * tables[i] must match limb i's modulus; all limbs share one N.
 *
 * The raw-pointer overloads take an array of at least @p count table
 * pointers (callers with cached per-level vectors pass .data() and
 * avoid building a fresh vector per call); the vector overloads add a
 * size check.
 */
void ntt_forward_batch(const NttTables* const* tables, u64* data,
                       std::size_t count, std::size_t stride);

/** Batch forward NTT with lazy outputs in [0, 2q) per limb — see
 *  NttTables::forward_lazy for the consumer contract. */
void ntt_forward_batch_lazy(const NttTables* const* tables, u64* data,
                            std::size_t count, std::size_t stride);

/** Batch inverse NTT; same layout and scheduling as ntt_forward_batch.
 *  Canonical output — N^{-1} is folded into the final stage, so there
 *  is no separate scaling sweep. */
void ntt_inverse_batch(const NttTables* const* tables, u64* data,
                       std::size_t count, std::size_t stride);

inline void
ntt_forward_batch(const std::vector<const NttTables*>& tables, u64* data,
                  std::size_t count, std::size_t stride)
{
    BTS_CHECK(tables.size() >= count, "NTT table count mismatch");
    ntt_forward_batch(tables.data(), data, count, stride);
}

inline void
ntt_forward_batch_lazy(const std::vector<const NttTables*>& tables,
                       u64* data, std::size_t count, std::size_t stride)
{
    BTS_CHECK(tables.size() >= count, "NTT table count mismatch");
    ntt_forward_batch_lazy(tables.data(), data, count, stride);
}

inline void
ntt_inverse_batch(const std::vector<const NttTables*>& tables, u64* data,
                  std::size_t count, std::size_t stride)
{
    BTS_CHECK(tables.size() >= count, "NTT table count mismatch");
    ntt_inverse_batch(tables.data(), data, count, stride);
}

/**
 * NTT-slot index map of the Galois automorphism X -> X^galois_exp (odd
 * exponent): for every limb, NTT(sigma(a))[i] == NTT(a)[index[i]].
 * Forward output slot i holds a(psi^(2*brv(i)+1)) (bit-reversed
 * order), and sigma(a) there is a(psi^((2*brv(i)+1)*galois_exp)), so
 * index[i] = brv(((2*brv(i)+1)*galois_exp mod 2N - 1) / 2). Applying an
 * automorphism to NTT-domain residues is then a pure gather: no
 * transform, and lazy [0, 2q) residues stay lazy.
 */
std::vector<u32> ntt_galois_index(std::size_t n, u64 galois_exp);

/**
 * Reference O(N^2) negacyclic convolution used by the tests to validate
 * the NTT path: out = a * b mod (X^N + 1, q).
 */
std::vector<u64> negacyclic_mul_reference(const std::vector<u64>& a,
                                          const std::vector<u64>& b, u64 q);

} // namespace bts
