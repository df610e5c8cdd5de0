/**
 * @file
 * Chebyshev-basis polynomial approximation and its homomorphic
 * evaluation (Paterson-Stockmeyer baby-step/giant-step).
 *
 * Bootstrapping's EvalMod approximates modular reduction with a scaled
 * sine (Section 2.4 of the paper, following Cheon et al. / Han-Ki):
 * non-polynomial functions in CKKS are always evaluated as high-degree
 * polynomials, which is also why ReLU/comparison-heavy workloads
 * (ResNet-20, sorting) consume so many levels. This module supplies the
 * generic machinery: numeric Chebyshev interpolation, Chebyshev-basis
 * division by T_g, and a depth-optimal homomorphic evaluator.
 */
#pragma once

#include <functional>
#include <vector>

#include "ckks/evaluator.h"

namespace bts {

/** A polynomial in the Chebyshev basis on an interval [a, b]. */
class ChebyshevSeries
{
  public:
    ChebyshevSeries(std::vector<double> coeffs, double a, double b);

    /**
     * Interpolate @p f at the degree+1 Chebyshev nodes of [a, b]
     * (discrete cosine transform of the samples). Mirror nodes are
     * sampled at exactly mid +- half * x, so an odd (even) function on
     * a symmetric interval gets exactly 0.0 in its even (odd)
     * coefficients, which the evaluator then skips.
     */
    static ChebyshevSeries interpolate(const std::function<double(double)>& f,
                                       double a, double b, int degree);

    int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
    double lower() const { return a_; }
    double upper() const { return b_; }
    const std::vector<double>& coeffs() const { return coeffs_; }

    /** Numeric evaluation via the Clenshaw recurrence. */
    double evaluate(double x) const;

    /** Maximum |f - series| sampled on a grid (testing helper). */
    double max_error(const std::function<double(double)>& f,
                     int samples = 2048) const;

  private:
    std::vector<double> coeffs_; // c_0 .. c_d (c_0 already halved)
    double a_, b_;
};

/**
 * Chebyshev-basis division: split f = q * T_g + r with deg(r) < g,
 * using T_g * T_j = (T_{g+j} + T_{|g-j|}) / 2.
 */
void chebyshev_divmod(const std::vector<double>& f, int g,
                      std::vector<double>& quotient,
                      std::vector<double>& remainder);

/**
 * Homomorphic evaluator for Chebyshev series.
 *
 * Paterson-Stockmeyer: the series is divided recursively by giant
 * powers T_{2^k m} down to leaves of degree < m (the baby-step count).
 * A leaf sum_j c_j T_j costs one rescale: each term is scaled by an
 * integer constant that puts it on the leaf's common raw scale, the
 * terms accumulate unrescaled at one level above the leaf's, and one
 * rescale lands the sum exactly on the requested scale. Terms with
 * c_j == 0, or whose constant rounds to 0, are skipped, and only the
 * powers some leaf or division reads are built.
 */
class ChebyshevEvaluator
{
  public:
    explicit ChebyshevEvaluator(const Evaluator& eval) : eval_(eval) {}

    /**
     * Evaluate @p series on @p ct homomorphically. Consumes at most
     * depth(series.degree()) + 1 levels (one for the affine
     * normalization onto [-1, 1]); fewer when the powers the series
     * reads sit higher. The result is reported at the context's
     * canonical scale.
     */
    Ciphertext evaluate(const Ciphertext& ct, const ChebyshevSeries& series,
                        const EvalKey& mult_key) const;

    /** Multiplicative depth the evaluation consumes (excl. normalize). */
    static int depth(int degree);

    /** Baby-step count m for a given degree (power of two ~ sqrt(d)). */
    static int baby_step_count(int degree);

  private:
    /** Power basis: T_1 .. T_m plus giants T_{2m}, T_{4m}, ... */
    struct PowerBasis
    {
        std::vector<Ciphertext> t; // index j -> T_j (only needed j filled)
        std::vector<bool> have;
        int m;
    };

    /** Build the T_j the evaluation of @p coeffs reads (and their
     *  dependencies): nonzero leaf terms and the giant divisors. */
    PowerBasis build_power_basis(const Ciphertext& y,
                                 const std::vector<double>& coeffs,
                                 const EvalKey& mult_key) const;

    /** Level the evaluation of @p coeffs will land on (dry run). */
    int level_of(const std::vector<double>& coeffs,
                 const PowerBasis& basis) const;

    /** Evaluate @p coeffs, delivering EXACTLY @p target_scale. */
    Ciphertext eval_recurse(const std::vector<double>& coeffs,
                            const PowerBasis& basis,
                            const EvalKey& mult_key,
                            double target_scale) const;

    const Evaluator& eval_;
};

} // namespace bts
