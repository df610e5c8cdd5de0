/**
 * @file
 * CKKS encoder: canonical embedding between complex slot vectors and
 * ring polynomials (Section 2.2 of the paper).
 *
 * A message of n complex slots (n a power of two, n <= N/2) maps to a
 * polynomial via the special FFT over the rotation group {5^j}: slot
 * values are the evaluations of the polynomial at the primitive 2N-th
 * roots of unity zeta^{5^j}. Sparse packing (n < N/2) places the
 * embedding of the size-n subring at stride N/(2n), which is what makes
 * sparse bootstrapping work.
 *
 * Both an O(n log n) special FFT and an O(n^2) direct-evaluation
 * reference are provided; tests pin their equivalence and the
 * ring-homomorphism property (negacyclic poly mult == slot-wise mult).
 */
#pragma once

#include <complex>
#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/ckks_context.h"

namespace bts {

using Complex = std::complex<double>;

/** Encoder/decoder bound to one context. */
class CkksEncoder
{
  public:
    explicit CkksEncoder(const CkksContext& ctx);

    /** Maximum slot count N/2. */
    std::size_t max_slots() const { return ctx_.n() / 2; }

    /**
     * Encode @p values (size = power of two <= N/2) at @p scale into a
     * level-@p level plaintext (NTT domain).
     */
    Plaintext encode(const std::vector<Complex>& values, double scale,
                     int level) const;

    /**
     * encode() onto extended_primes(level), {q_0..q_l, p_*}: the same
     * rounded coefficients, reduced by the special primes too (its
     * first l+1 limbs are encode()'s). The diagonals of a
     * double-hoisted linear transform, which multiply baby steps held
     * over Q*P.
     */
    Plaintext encode_extended(const std::vector<Complex>& values,
                              double scale, int level) const;

    /** Real-vector convenience overload. */
    Plaintext encode_real(const std::vector<double>& values, double scale,
                          int level) const;

    /** Encode the same scalar in every slot. */
    Plaintext encode_scalar(Complex value, std::size_t slots, double scale,
                            int level) const;

    /** Decode a plaintext back to its slot values. */
    std::vector<Complex> decode(const Plaintext& pt) const;

    /**
     * Decode via direct root evaluation — O(n^2) reference used by the
     * test suite to validate the special FFT.
     */
    std::vector<Complex> decode_direct(const Plaintext& pt) const;

    /**
     * Raw coefficient encoding: place round(values[i] * scale) directly
     * into coefficient i (no embedding). Used by bootstrapping tests and
     * the EvalMod diagnostics.
     */
    Plaintext encode_coeffs(const std::vector<double>& coeffs, double scale,
                            int level, std::size_t slots) const;

    /** Inverse of encode_coeffs (CRT-composes and centers). */
    std::vector<double> decode_coeffs(const Plaintext& pt) const;

    // --- embedding primitives (exposed for the bootstrapper, which needs
    //     the matrices of these transforms) ---

    /** In-place special FFT (decode direction) on @p v (size n). */
    void fft_special(std::vector<Complex>& v) const;

    /** In-place inverse special FFT (encode direction). */
    void fft_special_inv(std::vector<Complex>& v) const;

  private:
    /** encode() onto the chain @p primes; @p level is the label. */
    Plaintext encode_on(const std::vector<Complex>& values, double scale,
                        int level, const std::vector<u64>& primes) const;

    /** Centered big-integer coefficients divided by scale. */
    std::vector<double> coeffs_to_double(const Plaintext& pt) const;

    const CkksContext& ctx_;
};

} // namespace bts
