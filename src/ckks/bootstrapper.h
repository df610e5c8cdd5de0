/**
 * @file
 * CKKS bootstrapping (Section 2.4 of the paper).
 *
 * Pipeline (Cheon et al. / Han-Ki, the algorithm family the paper's
 * L_boot = 19 instance uses):
 *
 *   1. ModRaise   — reinterpret the exhausted level-0 ciphertext modulo
 *                   Q_L; the message becomes m + q_0 * I.
 *   2. SubSum     — for sparsely packed ciphertexts, the partial trace
 *                   (log2(gap) rotations) projects onto the packing
 *                   subring, scaling the message by gap = N/(2*slots).
 *   3. CoeffToSlot— homomorphic linear transform (1/2n * A^dagger)
 *                   moving coefficients into slots; a conjugation splits
 *                   real and imaginary parts. When 2n <= N/2 both parts
 *                   travel packed in one real 2n-slot ciphertext (the
 *                   lifts in dft_factor.h); at full slots they are two
 *                   ciphertexts.
 *   4. EvalMod    — approximate modular reduction by q_0 via the scaled
 *                   sine sin(2*pi*u)/(2*pi), evaluated as a Chebyshev
 *                   series on [-K, K]; once per part (one when packed).
 *   5. SlotToCoeff— the inverse transform A, recombining the parts.
 *
 * The heavy cost structure the paper accelerates — hundreds of HMult and
 * HRot ops, each streaming an evk — comes from steps 3-5. CtS and StC
 * run either as single-shot dense BSGS transforms (radix 0, the
 * reference oracle) or factored into radix-2^r butterfly stages
 * (dft_factor.h): O(radix) diagonals per stage instead of n, at the
 * price of one level per stage.
 */
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ckks/chebyshev.h"
#include "ckks/dft_factor.h"
#include "ckks/linear_transform.h"

namespace bts {

/** Tunables for bootstrapping. */
struct BootstrapConfig
{
    std::size_t slots = 64;   //!< packing width of bootstrappable inputs
    /**
     * EvalMod interval [-K, K]. Must bound |u| at the EvalMod input:
     * SubSum sums gap = N/(2*slots) rotated copies of the ModRaise
     * integer part, so K scales ~linearly with gap (12 covers gap = 2
     * at hamming weight 32; gap = 4 needs ~24). sine_degree must grow
     * with K too (> e*pi*K for the Chebyshev series to converge).
     */
    double k_range = 12.0;
    int sine_degree = 119;    //!< Chebyshev degree for the scaled sine
    bool normalize_output_scale = true; //!< end at the canonical scale
    /**
     * CtS / StC decomposition radix: a power of two >= 2 factors the
     * transform into ceil(log2(slots)/log2(radix)) sparse stages (one
     * level each); 0 selects the dense single-shot oracle (one level,
     * n diagonals). Must be both zero or both nonzero: the factored
     * stages drop the DFT's bit-reversal, which only cancels when the
     * matching factored inverse runs on the other side of EvalMod.
     */
    int cts_radix = 0;
    int stc_radix = 0;
};

/** One-time-setup bootstrapper bound to a context and key set. */
class Bootstrapper
{
  public:
    Bootstrapper(const CkksContext& ctx, const CkksEncoder& encoder,
                 const Evaluator& eval, const BootstrapConfig& config);

    /**
     * All rotation amounts the caller must generate keys for. Both
     * transforms compile eagerly in the constructor, so this is exact
     * (and stable across bootstrap() calls) from construction on.
     */
    std::vector<int> required_rotations() const;

    /** Install the key material (borrowed; must outlive this object). */
    void set_keys(const EvalKey* mult_key, const RotationKeys* rot_keys,
                  const EvalKey* conj_key);

    /**
     * Refresh @p ct (level 0, canonical scale) to a high level.
     * @return a ciphertext of the same message with fresh levels.
     */
    Ciphertext bootstrap(const Ciphertext& ct) const;

    /**
     * Level bootstrap() returns: StC's input level minus its stages,
     * minus the normalizing rescale when it runs. Like
     * required_rotations(), exact from construction on.
     */
    int output_level() const { return output_level_; }

    const ChebyshevSeries& sine_series() const { return sine_series_; }
    const BootstrapConfig& config() const { return config_; }

    /** Levels CtS / StC consume (1 for dense, #stages for factored). */
    int cts_levels() const;
    int stc_levels() const;
    /** Ciphertext level when SlotToCoeff starts (fixed at setup). */
    int stc_input_level() const { return stc_input_level_; }

    // Individual stages, exposed for tests and diagnostics. bootstrap()
    // is stage_slot_to_coeff of stage_eval_mod of each part
    // stage_coeff_to_slot returns, then the normalizing rescale.
    Ciphertext stage_raise_and_subsum(const Ciphertext& ct) const;
    /** One packed 2n-slot part (2n <= N/2), else the real and the
     *  imaginary part. */
    std::vector<Ciphertext> stage_coeff_to_slot(
        const Ciphertext& raised) const;
    Ciphertext stage_eval_mod(const Ciphertext& u) const;
    /** @p parts: stage_eval_mod of each stage_coeff_to_slot part. */
    Ciphertext stage_slot_to_coeff(std::span<const Ciphertext> parts) const;

  private:
    const CkksContext& ctx_;
    const CkksEncoder& encoder_;
    const Evaluator& eval_;
    BootstrapConfig config_;

    std::size_t gap_;        // N/2 / slots
    bool packed_;            // 2 * slots <= N/2: one EvalMod part
    ChebyshevSeries sine_series_;
    // Dense oracle (radix == 0) or factored stages, both set eagerly in
    // the constructor. (The previous lazy StC compile mutated state
    // inside const bootstrap() with no synchronization — a data race
    // for concurrent bootstraps — and made required_rotations()
    // under-report until first use.)
    std::unique_ptr<FactoredDft> cts_;
    std::unique_ptr<FactoredDft> stc_;
    int stc_input_level_ = -1;
    int output_level_ = -1;

    const EvalKey* mult_key_ = nullptr;
    const RotationKeys* rot_keys_ = nullptr;
    const EvalKey* conj_key_ = nullptr;
};

} // namespace bts
