/**
 * @file
 * Factored homomorphic DFT: CoeffToSlot/SlotToCoeff as a product of
 * radix-2^r butterfly stages (the decomposition the paper's bootstrap
 * cost model assumes; cf. Cheon-Han-Hhan's faster homomorphic DFT and
 * the Lattigo/HEAAN bootstrapping pipelines).
 *
 * The special Fourier matrix A (A[t][k] = zeta^{5^t k}, zeta the
 * primitive 4n-th root of unity) factors exactly like the iterative
 * radix-2 DIT FFT that evaluates it:
 *
 *     A = S_k * S_{k-1} * ... * S_1 * P,      k = log2(n),
 *
 * where P is the bit-reversal permutation and butterfly stage S_i has
 * only the cyclic diagonals {0, +2^{i-1}, -2^{i-1}}. Merging r
 * consecutive stages (radix 2^r) yields ceil(k/r) factors of at most
 * 2^{r+1}-1 diagonals each — O(radix) diagonals per level spent,
 * versus the n diagonals of the single-shot dense transform.
 *
 * The permutation P is never evaluated homomorphically: CoeffToSlot
 * applies S_1^dagger ... S_k^dagger (= P * A^dagger, i.e. the dense
 * CtS output in bit-reversed slot order) and SlotToCoeff applies
 * S_k ... S_1 (= A * P, which consumes bit-reversed input). EvalMod
 * between them is slot-wise, so the two P's cancel and the bootstrap
 * pipeline is bit-for-bit the same message map as the dense oracle.
 *
 * Stage matrices are composed in sparse diagonal form; the dense n x n
 * matrix is never materialized.
 */
#pragma once

#include <memory>

#include "ckks/linear_transform.h"

namespace bts {

/** Which direction of the homomorphic DFT to compile. */
enum class DftDirection
{
    kCoeffToSlot, //!< (1/2n) A^dagger, bit-reversed output order
    kSlotToCoeff, //!< A, bit-reversed input order
};

/**
 * The dense special Fourier matrix A (the oracle's matrix — the
 * factored path never calls this).
 */
std::vector<std::vector<Complex>> special_fourier_matrix(std::size_t n);

/** out = M * v for a sparse diagonal matrix (clear-math test helper). */
std::vector<Complex> apply_diagonals(const DiagonalMap& m,
                                     const std::vector<Complex>& v);

/**
 * Sparse packing (slots n <= N/4): the bootstrap carries the real and
 * imaginary parts of its CtS output as one real 2n-slot ciphertext, so
 * EvalMod runs once. An n-slot ciphertext already is the 2n-slot vector
 * (x, x), and a 2n-slot vector (y, y) is the n-slot y, so two lifts of
 * an n-slot stage M to 2n slots carry the parts in and out:
 *
 * CtS tail: each diagonal D at shift d becomes (D, -i*D). On (x, x) it
 * yields t' = (Mx, -i*Mx), and t' + conj(t') = (2 Re Mx, 2 Im Mx).
 */
DiagonalMap lift_cts_tail(const DiagonalMap& m);

/**
 * StC head: the 2n-slot map [[M, iM], [M, iM]], taking a real (a, b)
 * to (M(a+ib), M(a+ib)). It has diagonals at shifts d and d + n for
 * each shift d of M; compile it with LinearTransform's half_turn so the
 * upper ones read shift d of rot_n(v) and the BSGS grid stays M's.
 */
DiagonalMap lift_stc_head(const DiagonalMap& m);

/**
 * A compiled homomorphic DFT: ceil(log2(n)/log2(radix)) sparse BSGS
 * stages, or the dense oracle's one stage, each consuming one level,
 * applied in sequence.
 */
class FactoredDft
{
  public:
    /**
     * Compile for @p slots slots at radix @p radix (a power of two
     * >= 2), for inputs at level @p input_level. Stage s is compiled at
     * level input_level - s; construction fails if the level budget
     * cannot cover every stage.
     *
     * @param packed lift the stage that meets EvalMod to 2n slots
     * (lift_cts_tail on CoeffToSlot's last stage, lift_stc_head on
     * SlotToCoeff's first): CoeffToSlot then returns the 2n-slot
     * (t, -i*t) and SlotToCoeff takes the 2n-slot packed part.
     * @param bsgs_ratio giant-step bias of each stage's BSGS. Sparse
     * stages default to 4 (vs 1 for dense transforms): the stages are
     * double hoisted (linear_transform.h), so a baby step pays only an
     * inner product (its input's one ModUp is shared and it has no
     * ModDown) while a giant step pays a mask ModDown, a ModUp and an
     * inner product. With only O(radix) diagonals a wider baby front
     * trades cheap baby steps for expensive giant ones. At the
     * functional instance (N=2^8, L=20, radix 8, one lane of a 2.1 GHz
     * Xeon) ratio 16 ran CtS + StC about 9% faster (median of 40
     * alternated rounds, faster in 30) but needs 13 rotation keys
     * instead of 11; the bootstrap's key set is pinned, so 4 stays.
     */
    FactoredDft(const CkksContext& ctx, const CkksEncoder& encoder,
                std::size_t slots, DftDirection direction, int radix,
                int input_level, bool packed = false,
                double bsgs_ratio = 4.0);

    /**
     * The dense oracle as one stage of n diagonals (BSGS ratio 1): the
     * direction's matrix in natural slot order, (1/2n) A^dagger or A.
     * The factored stages are tested against it.
     */
    static FactoredDft dense(const CkksContext& ctx,
                             const CkksEncoder& encoder, std::size_t slots,
                             DftDirection direction, int input_level,
                             bool packed = false);

    /** Number of radix stages == levels consumed by apply(). */
    int num_stages() const { return static_cast<int>(stages_.size()); }

    /**
     * Stage count a (slots, radix) pair compiles to — ceil(log2(slots)
     * / log2(radix)) under the current chunking — for level-budget
     * planning before construction.
     */
    static int num_stages_for(std::size_t slots, int radix);

    DftDirection direction() const { return direction_; }

    /** Sum of nonzero diagonals (PMult count) across all stages. */
    int total_diagonals() const;

    /** Union of every stage's rotation amounts. */
    std::vector<int> required_rotations() const;

    /** Apply all stages in order; consumes num_stages() levels. */
    Ciphertext apply(const Evaluator& eval, const Ciphertext& ct,
                     const RotationKeys& rot_keys) const;

    const LinearTransform& stage(int s) const { return *stages_[s]; }

    /**
     * The merged radix-stage matrices in application order, as sparse
     * diagonal maps (exposed for tests; also how the constructor builds
     * its stages — no dense intermediate).
     */
    static std::vector<DiagonalMap> stage_diagonals(std::size_t n,
                                                    DftDirection direction,
                                                    int radix);

  private:
    FactoredDft(const CkksContext& ctx, const CkksEncoder& encoder,
                std::size_t slots, DftDirection direction,
                std::vector<DiagonalMap> maps, int input_level, bool packed,
                double bsgs_ratio);

    std::size_t in_slots_;
    std::size_t out_slots_;
    DftDirection direction_;
    std::vector<std::unique_ptr<LinearTransform>> stages_;
};

} // namespace bts
