/**
 * @file
 * Homomorphic evaluator: the primitive CKKS ops of Section 2.3 of the
 * paper (HAdd, HMult, HRot, HRescale, CAdd/CMult, PAdd/PMult) plus the
 * key-switching pipeline they share (Fig. 3a):
 *
 *   iNTT -> BConv (ModUp) -> NTT -> [slot permutation] -> evk inner
 *   product -> iNTT -> BConv (ModDown) -> NTT -> subtract-scale-add (SSA)
 *
 * Ciphertexts and plaintexts are kept in the NTT domain at rest, exactly
 * as BTS does on-chip; only BConv drops back to the coefficient domain
 * (Section 4.1). A Galois automorphism is a permutation of NTT slots
 * (ntt_galois_index), so HRot pays exactly HMult's key-switch
 * transforms — the NoC permutation of the paper's Section 5.5.
 *
 * Hoisted rotations split at their ModDown: rotate_hoisted and
 * rotate_hoisted_ext share the ModUp and the per-amount inner products
 * (hoisted_products); rotate_hoisted ModDowns each, while
 * rotate_hoisted_ext leaves each rotation as a pair over the extended
 * base Q*P whose ModDown is rotate_hoisted's. A double-hoisted linear
 * transform (linear_transform.h) multiplies and sums those Q*P pairs,
 * rotates the sums with rotate_ext and pays one mod_down_inplace per
 * polynomial at the end.
 *
 * Every op takes and returns canonical residues in [0, q). Unreduced
 * ones (a lazy NTT's output, a multiply-accumulate's 128-bit sums)
 * stay inside the op that makes them.
 */
#pragma once

#include <map>
#include <mutex>

#include "ckks/ciphertext.h"
#include "ckks/ckks_context.h"
#include "ckks/encoder.h"
#include "ckks/keys.h"
#include "math/mod_arith.h"

namespace bts {

/** Stateless (except precompute caches) CKKS op engine. */
class Evaluator
{
  public:
    Evaluator(const CkksContext& ctx, const CkksEncoder& encoder);

    const CkksContext& context() const { return ctx_; }

    // ----- additive ops -----
    /** HAdd/HSub at the lower of the two levels: the result starts as
     *  a copy of @p a's limbs up to that level, and @p b is read in
     *  place. */
    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext negate(const Ciphertext& a) const;

    // ----- multiplicative ops -----
    /** HMult (Eq. 3-4): tensor product + relinearizing key-switch.
     *  Result scale is scale(a)*scale(b); caller rescales. */
    Ciphertext mult(const Ciphertext& a, const Ciphertext& b,
                    const EvalKey& mult_key) const;

    Ciphertext square(const Ciphertext& a, const EvalKey& mult_key) const;

    /** HRescale: divide by the top prime, dropping one level. */
    void rescale_inplace(Ciphertext& ct) const;

    /** Fused HMult+HRescale: the single-call form the runtime's fusion
     *  pass dispatches (one scheduler hop and no intermediate
     *  ciphertext hand-off). Bit-identical to mult() then
     *  rescale_inplace(). */
    Ciphertext mult_rescale(const Ciphertext& a, const Ciphertext& b,
                            const EvalKey& mult_key) const;

    /** Fused PMult+HRescale (same contract as mult_rescale). */
    Ciphertext mult_plain_rescale(const Ciphertext& ct,
                                  const Plaintext& pt) const;

    /** Fused PMult+CAdd: multiply by @p pt, then add constant @p c at
     *  the product's scale. Bit-identical to mult_plain() then
     *  add_const_inplace(). */
    Ciphertext mult_plain_add_const(const Ciphertext& ct,
                                    const Plaintext& pt, Complex c) const;

    // ----- rotations -----
    /** HRot by @p r slots (Eq. 5-6); key must match the amount. */
    Ciphertext rotate(const Ciphertext& ct, int r,
                      const EvalKey& rot_key) const;

    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext& ct,
                         const EvalKey& conj_key) const;

    /**
     * Hoisted rotations (Halevi-Shoup / Bossuat et al. [12], the trick
     * bootstrapping's rotation batteries rely on): compute the
     * decompose+ModUp of the input ONCE and share it across all
     * @p amounts, paying only an inner product read through the
     * amount's NTT slot permutation + ModDown per rotation. Matches
     * rotate() up to BConv rounding (rotate permutes before its ModUp,
     * this after), at a fraction of the iNTT/BConv work.
     */
    std::vector<Ciphertext> rotate_hoisted(const Ciphertext& ct,
                                           const std::vector<int>& amounts,
                                           const RotationKeys& keys) const;

    /**
     * rotate_hoisted with pre-resolved keys: @p keys[i] is the rotation
     * key for @p amounts[i] (may be null when amounts[i] == 0, which
     * copies the input). The runtime Executor resolves keys once per
     * plan and dispatches every rotation — single or grouped — through
     * this entry point, so a pass grouping rotations of the same value
     * never changes the numerics, only how often the shared
     * decompose+ModUp prefix is paid.
     */
    std::vector<Ciphertext>
    rotate_hoisted(const Ciphertext& ct, const std::vector<int>& amounts,
                   const std::vector<const EvalKey*>& keys) const;

    // ----- the extended base Q*P (double-hoisted transforms) -----
    // A "Q*P pair" is two NTT-domain polynomials over
    // extended_primes(level) that stand for P times a level-l
    // ciphertext: their ModDown (mod_down_inplace on each) is that
    // ciphertext. Sums of Q*P pairs stay Q*P pairs, so a transform can
    // sum many rotations and pay one ModDown.

    /** The Q*P pair of @p ct: P*(b, a) on the Q limbs, 0 on the
     *  special-prime limbs. Its ModDown is @p ct exactly. */
    std::pair<RnsPoly, RnsPoly> to_ext(const Ciphertext& ct) const;

    /**
     * rotate_hoisted without its ModDowns: one decompose+ModUp of
     * @p ct's mask shared by every key, then per key the evk inner
     * product (u, v) read through its NTT slot permutation, and
     * P*sigma(b) added on u's Q limbs. Entry k is the Q*P pair of
     * rotation k; its ModDown is rotate_hoisted's output bit for bit.
     * Every key must be non-null (amount 0 pays no key-switch).
     */
    std::vector<std::pair<RnsPoly, RnsPoly>>
    rotate_hoisted_ext(const Ciphertext& ct,
                       const std::vector<const EvalKey*>& keys) const;

    /**
     * Rotate the Q*P pair @p ext (P times a level-@p level ciphertext)
     * by @p r slots and keep the result a Q*P pair: ModDown only the
     * mask, key-switch its rotation (ModUp, inner product, no ModDown)
     * and permute the body over Q*P. A double-hoisted giant step: one
     * keyswitch span, 1 + (slices) BConvs.
     */
    std::pair<RnsPoly, RnsPoly> rotate_ext(std::pair<RnsPoly, RnsPoly> ext,
                                           int r, const EvalKey& rot_key,
                                           int level) const;

    /** ModDown by P: @p acc (extended base, NTT) -> level-l base, the
     *  SSA step of Fig. 3a. */
    void mod_down_inplace(RnsPoly& acc, int level) const;

    /**
     * Re-key a ciphertext to another party's secret using a key from
     * KeyGenerator::gen_rekey_key (server-side proxy re-encryption).
     */
    Ciphertext switch_key(const Ciphertext& ct,
                          const EvalKey& rekey_key) const;

    // ----- plaintext ops -----
    /** PMult; result scale is scale(ct)*scale(pt). */
    Ciphertext mult_plain(const Ciphertext& ct, const Plaintext& pt) const;
    /** PAdd; scales must agree (within tolerance). Reads the
     *  plaintext's first level+1 limbs in place. */
    Ciphertext add_plain(const Ciphertext& ct, const Plaintext& pt) const;
    Ciphertext sub_plain(const Ciphertext& ct, const Plaintext& pt) const;

    // ----- constant ops -----
    /** CMult by a real constant, encoded at @p const_scale. */
    Ciphertext mult_const(const Ciphertext& ct, double c,
                          double const_scale) const;
    /** CMult by a complex constant (uses the exact X^{N/2} monomial for
     *  the imaginary unit, so no extra level is consumed for i). */
    Ciphertext mult_const_complex(const Ciphertext& ct, Complex c,
                                  double const_scale) const;
    /**
     * Multiply by a real constant with the encode scale chosen so that
     * the product, after one rescale, lands exactly on
     * @p target_scale_after_rescale. The constant is rounded to an
     * integer at scale target * q_top / scale(ct), and that rounding
     * stays in the value: up to 5e-9 relative for a slope of 1/12 from
     * a 2^50-scale input. So neither the Chebyshev evaluator's affine
     * map (it derives its scale from the integer instead) nor the
     * bootstrap (its scale plan lands on Delta) calls it. Linear
     * combinations of many terms should not call it per term either:
     * each call pays its own rescale, where the Chebyshev leaves
     * accumulate at the raw scale and rescale once.
     */
    Ciphertext mult_const_to_scale(const Ciphertext& ct, double c,
                                   double target_scale_after_rescale) const;

    /** CAdd of a real or complex constant (no scale change). */
    void add_const_inplace(Ciphertext& ct, Complex c) const;

    /** Exact multiplication of every slot by i (monomial X^{N/2}). */
    Ciphertext mult_by_i(const Ciphertext& ct) const;

    // ----- level management -----
    /** Drop to @p target_level by discarding residue polynomials. */
    void drop_level_inplace(Ciphertext& ct, int target_level) const;

    /**
     * ModRaise for bootstrapping: reinterpret a level-0 ciphertext modulo
     * the full Q_L (the message becomes m + q_0 * I, Section 2.4).
     */
    Ciphertext mod_raise(const Ciphertext& ct) const;

    /**
     * Key-switch polynomial @p d (NTT domain, level-l base; [0, 2q)
     * residues allowed) with @p evk: ModUp each dnum slice,
     * inner-product with the key (each residue's sum over the slices
     * reduced once), ModDown by P. Every slice's ModUp is alive at
     * once, dnum extended polynomials where streaming would hold one:
     * at hw::ins_lattigo()'s shape (N=2^16, L=21, dnum 3) two more
     * polynomials of 30 limbs, about 31 MB of extra peak.
     * @return the (b, a) correction pair on the level-l base.
     */
    std::pair<RnsPoly, RnsPoly> key_switch(const RnsPoly& d,
                                           const EvalKey& evk,
                                           int level) const;

    /** Relative scale mismatch tolerated by additions. */
    static constexpr double kScaleTolerance = 1e-6;

  private:
    /**
     * (sum_j f_j * evk_j.b, sum_j f_j * evk_j.a) over the level-l
     * extended base, f_j the ModUp of slice j of @p d: its own limbs
     * are d's rows and the rest are @p raised[j]'s (mod_up's output),
     * each read in place. One pass: the key's components are read in
     * place through the {q_0..q_l, p_*} -> evk-base index map, and
     * each residue's sum is accumulated in 128 bits and reduced once.
     * With @p index (an ntt_galois_index map), every f_j is read
     * through it: the product of its automorphism image, unbuilt.
     */
    std::pair<RnsPoly, RnsPoly>
    evk_inner_product(const RnsPoly& d, const std::vector<RnsPoly>& raised,
                      const EvalKey& evk, int level,
                      const std::vector<u32>* index = nullptr) const;

    /** ModUp of dnum slice @p slice of @p d (level-l base, NTT): the
     *  slice base-converted from its iNTT onto the rest of
     *  {q_0..q_l, p_*} in that order, forward-NTT'd lazily ([0, 2q)).
     *  The slice's own limbs are not copied; the inner product reads
     *  them from @p d. */
    RnsPoly mod_up(const RnsPoly& d, int slice, int level) const;

    /**
     * The key-switch front hoisted rotations share: one ModUp of every
     * slice of @p d, then per key k the evk inner product read through
     * @p indices[k] (its ntt_galois_index map). Every slice's ModUp is
     * held at once, so each residue's inner product over the slices is
     * reduced once.
     */
    std::vector<std::pair<RnsPoly, RnsPoly>>
    hoisted_products(const RnsPoly& d, int level,
                     const std::vector<const EvalKey*>& keys,
                     const std::vector<std::vector<u32>>& indices) const;

    /** @p acc's first src.num_primes() limbs += P * @p src, read
     *  through @p index when given (P*src is 0 on the special primes). */
    void add_p_times(RnsPoly& acc, const RnsPoly& src,
                     const std::vector<u32>* index) const;

    /** sigma_{galois_exp} as an NTT slot permutation of @p ct, then
     *  switch_key with @p key (the body of rotate and conjugate). */
    Ciphertext switch_galois(const Ciphertext& ct, u64 galois_exp,
                             const EvalKey& key) const;

    /** Rescale one polynomial of a ciphertext by its top prime. */
    void rescale_poly(RnsPoly& poly) const;

    /**
     * NTT image of the monomial X^power mod @p prime, with Shoup
     * constants precomputed per point (the monomial is a fixed operand
     * on the hot mult_by_i bootstrap path).
     */
    const std::vector<ShoupMul>& monomial_shoup(u64 prime,
                                                std::size_t power) const;

    const CkksContext& ctx_;
    const CkksEncoder& encoder_;
    mutable std::mutex monomial_mutex_; //!< guards monomial_cache_
    mutable std::map<std::pair<u64, std::size_t>, std::vector<ShoupMul>>
        monomial_cache_;
};

} // namespace bts
