/**
 * @file
 * Homomorphic linear transforms via the baby-step/giant-step (BSGS)
 * diagonal method.
 *
 * A dense n x n complex matrix M applied to the slot vector decomposes
 * into diagonals: out = sum_d diag_d (*) rot_d(in). BSGS groups d =
 * g*i + j so only O(sqrt(n)) rotations are needed per application —
 * this is the op structure of bootstrapping's CoeffToSlot/SlotToCoeff,
 * which dominates the HRot count the paper's Section 3.3 discusses
 * (the "more than 40 evks" workload).
 *
 * Transforms compile either from a dense matrix (diagonals are
 * extracted) or directly from a sparse diagonal map — the factored
 * homomorphic DFT (dft_factor.h) uses the latter so the dense n x n
 * matrix is never materialized.
 *
 * apply() is double hoisted (Bossuat, Mouchet, Troncoso-Pastoriza &
 * Hubaux, Eurocrypt 2021, extending Halevi & Shoup's single hoisting):
 * the baby steps share one ModUp and stay over the extended base Q*P
 * with no ModDown (Evaluator::rotate_hoisted_ext), the diagonals are
 * encoded over Q*P, and each giant step sums over Q*P. A giant-step
 * rotation ModDowns only its sum's mask before its key-switch
 * (Evaluator::rotate_ext), and the transform ModDowns its accumulated
 * pair once, then rescales. Per apply: one ModUp per input the
 * diagonals read, 1 + (slices) BConvs per giant-step rotation and 2 for
 * the final ModDown, whatever the number of baby steps. The Q*P
 * diagonals cost (l+1+k)/(l+1) times the plaintext memory of Q-only
 * ones, and every product runs over l+1+k limbs.
 */
#pragma once

#include <map>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"

namespace bts {

/**
 * A sparse complex matrix stored as its nonzero cyclic diagonals:
 * diagonal d (0 <= d < n) holds diag_d[j] = M[j][(j + d) mod n].
 */
using DiagonalMap = std::map<int, std::vector<Complex>>;

/** A precompiled homomorphic matrix-vector product. */
class LinearTransform
{
  public:
    /**
     * Compile @p matrix (n x n, row-major: out_j = sum_k M[j][k] in_k)
     * for application at ciphertext level @p level. Diagonal plaintexts
     * are encoded once at construction (the hardware analogue: BTS keeps
     * PMult operands resident as plaintexts).
     *
     * @param bsgs_ratio giant-step width g is ~sqrt(n * bsgs_ratio).
     */
    LinearTransform(const CkksContext& ctx, const CkksEncoder& encoder,
                    const std::vector<std::vector<Complex>>& matrix,
                    int level, double bsgs_ratio = 1.0);

    /**
     * Compile directly from nonzero diagonals of an n x n matrix —
     * the sparse path used by the factored DFT stages. Near-zero
     * diagonals are dropped. The giant-step width honours the common
     * stride of the shifts (a radix stage's shifts are all multiples of
     * its butterfly span; a stride-blind g would put every diagonal in
     * its own giant step).
     *
     * With @p half_turn, a diagonal at shift d + n/2 (d < n/2) is read
     * as shift d of the half-turned input rot_{n/2}(ct): the BSGS grid
     * spans only [0, n/2), each input gets its own hoisted baby steps,
     * and n/2 is the one extra rotation amount. (The packed bootstrap's
     * SlotToCoeff head, dft_factor.h, keeps its n-slot grid this way.)
     */
    LinearTransform(const CkksContext& ctx, const CkksEncoder& encoder,
                    std::size_t n, const DiagonalMap& diagonals, int level,
                    double bsgs_ratio = 1.0, bool half_turn = false);

    /** Rotation amounts (all positive, < n) this transform needs. */
    const std::vector<int>& required_rotations() const
    {
        return required_rotations_;
    }

    /**
     * Apply to @p ct. Consumes exactly one level (the final rescale);
     * the output keeps the input's scale.
     */
    Ciphertext apply(const Evaluator& eval, const Ciphertext& ct,
                     const RotationKeys& rot_keys) const;

    std::size_t dimension() const { return n_; }
    int num_diagonals() const { return static_cast<int>(diag_values_.size()); }
    int baby_steps() const { return g_; }
    /** Input level the transform was compiled for (output is level-1). */
    int level() const { return level_; }

  private:
    using ExtPair = std::pair<RnsPoly, RnsPoly>;

    /** One giant step's inner sum over Q*P: sum_t baby_t (*) pt_t over
     *  its baby steps' Q*P pairs and their pre-rotated diagonals, in a
     *  single pass. */
    ExtPair inner_sum(
        const std::vector<std::pair<const ExtPair*, const Plaintext*>>& terms)
        const;

    const CkksContext& ctx_;
    const CkksEncoder& encoder_;
    std::size_t n_;
    int level_;
    int g_; // giant-step width (number of baby rotations)
    int turn_ = 0; // n/2 when some diagonal reads rot_{n/2}(input)
    /** Nonzero diagonals: shift -> pre-rotated slot values. Stored as
     *  (shift, giant index, values rotated by -g*i). */
    struct Diag
    {
        int shift;           // d in [0, n), or [0, n/2) when turned
        bool turned;         // reads the half-turned input
        int baby;            // j = d mod g
        int giant;           // i = d / g
        Plaintext plaintext; // diagonal pre-rotated by -g*i, over Q*P
    };
    std::vector<Diag> diag_values_;
    std::vector<int> required_rotations_;
};

/** The cyclic diagonals of a dense square matrix, zero ones included. */
DiagonalMap diagonals_of(const std::vector<std::vector<Complex>>& matrix);

/** Build the n x n identity-scaled matrix (testing helper). */
std::vector<std::vector<Complex>> scaled_identity_matrix(std::size_t n,
                                                         Complex s);

} // namespace bts
