#include "ckks/chebyshev.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;

double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-4 * x));
}

double
sin3(double x)
{
    return std::sin(3 * x);
}

double
cos3(double x)
{
    return std::cos(3 * x);
}

TEST(ChebyshevSeries, InterpolatesSmoothFunctions)
{
    const auto exp_series = ChebyshevSeries::interpolate(
        [](double x) { return std::exp(x); }, -1, 1, 15);
    EXPECT_LT(exp_series.max_error([](double x) { return std::exp(x); }),
              1e-12);

    const auto sin_series = ChebyshevSeries::interpolate(
        [](double x) { return std::sin(x); }, -3, 3, 23);
    EXPECT_LT(sin_series.max_error([](double x) { return std::sin(x); }),
              1e-10);
}

TEST(ChebyshevSeries, ScaledSineForEvalMod)
{
    // The bootstrapping workhorse: sin(2 pi u)/(2 pi) over [-12, 12]
    // at degree 159 must be accurate to ~1e-9 — this pins the degree
    // budget the bootstrapper uses.
    const double k = 12.0;
    const auto series = ChebyshevSeries::interpolate(
        [](double u) { return std::sin(2 * M_PI * u) / (2 * M_PI); }, -k, k,
        159);
    EXPECT_LT(series.max_error([](double u) {
        return std::sin(2 * M_PI * u) / (2 * M_PI);
    }),
              1e-9);
}

TEST(ChebyshevSeries, LowDegreeSineIsInaccurate)
{
    // Sanity check of the degree requirement: degree 31 cannot capture
    // 24 periods.
    const auto series = ChebyshevSeries::interpolate(
        [](double u) { return std::sin(2 * M_PI * u) / (2 * M_PI); }, -12, 12,
        31);
    EXPECT_GT(series.max_error([](double u) {
        return std::sin(2 * M_PI * u) / (2 * M_PI);
    }),
              1e-3);
}

TEST(ChebyshevSeries, ParityGivesExactZeroCoefficients)
{
    // Mirror nodes are sampled at exactly mid +- half * x and the DCT
    // folds over the pairs, so on a symmetric interval an odd function
    // gets exactly 0.0 in its even coefficients and an even function in
    // its odd ones: the evaluator skips those terms, and the powers only
    // they would read. Odd and even degrees cover both node-count
    // parities (an odd count has a middle node at x = 0).
    const auto check = [](const ChebyshevSeries& series, int zero_parity,
                          const char* what) {
        for (int j = 0; j <= series.degree(); ++j) {
            const double c = series.coeffs()[j];
            if (j % 2 == zero_parity) {
                EXPECT_EQ(c, 0.0) << what << " c_" << j;
            } else {
                EXPECT_NE(c, 0.0) << what << " c_" << j;
            }
        }
    };
    for (int degree : {23, 24}) {
        check(ChebyshevSeries::interpolate(sin3, -1, 1, degree), 0,
              "sin(3x)");
        check(ChebyshevSeries::interpolate(cos3, -1, 1, degree), 1,
              "cos(3x)");
    }
    // The bootstrap's EvalMod sine.
    check(ChebyshevSeries::interpolate(
              [](double u) { return std::sin(2 * M_PI * u) / (2 * M_PI); },
              -12, 12, 119),
          0, "sine");
}

TEST(ChebyshevDivmod, ReconstructsOriginal)
{
    // f == q * T_g + r must hold as functions.
    Xoshiro256 rng(3);
    for (int deg : {8, 13, 21, 40}) {
        std::vector<double> f(deg + 1);
        for (auto& c : f) c = 2 * rng.uniform_real() - 1;
        for (int g : {4, 8}) {
            if (g > deg) continue;
            std::vector<double> q, r;
            chebyshev_divmod(f, g, q, r);
            EXPECT_LT(static_cast<int>(r.size()), g + 1);
            // Evaluate both sides on a grid via Clenshaw.
            const ChebyshevSeries sf(f, -1, 1), sq(q, -1, 1), sr(r, -1, 1);
            for (double x = -1; x <= 1; x += 0.05) {
                const double tg = std::cos(g * std::acos(std::min(
                                               1.0, std::max(-1.0, x))));
                EXPECT_NEAR(sf.evaluate(x),
                            sq.evaluate(x) * tg + sr.evaluate(x), 1e-9);
            }
        }
    }
}

TEST(ChebyshevEvaluator, DepthFormula)
{
    // degree < m: just baby steps; larger degrees add giant squarings.
    EXPECT_EQ(ChebyshevEvaluator::baby_step_count(15), 4);
    EXPECT_EQ(ChebyshevEvaluator::baby_step_count(31), 8);
    EXPECT_GE(ChebyshevEvaluator::depth(31), 4);
    EXPECT_LE(ChebyshevEvaluator::depth(31), 7);
    EXPECT_LE(ChebyshevEvaluator::depth(159), 9);
}

/** One homomorphic-evaluation case on [-1, 1]. */
struct ChebyCase
{
    const char* function;
    double (*f)(double);
    int degree;
};

/** The case's label in test listings (ctest names the cases by it). The
 *  sigmoid cases keep their bare-degree labels. */
void
PrintTo(const ChebyCase& c, std::ostream* os)
{
    if (std::string(c.function) != "sigmoid") *os << c.function << "_";
    *os << c.degree;
}

class HomomorphicChebyTest : public ::testing::TestWithParam<ChebyCase>
{};

TEST_P(HomomorphicChebyTest, MatchesClenshaw)
{
    // Evaluate a Chebyshev series homomorphically and compare against
    // the numeric Clenshaw evaluation slot by slot. The odd sin(3x) and
    // even cos(3x) have exact-zero coefficients of the other parity, so
    // their evaluations skip those terms and the powers only they read.
    CkksParams params = testing::small_params();
    params.max_level = 8;
    auto& env = testing::cached_env("cheby", params);

    const ChebyCase& c = GetParam();
    const auto series = ChebyshevSeries::interpolate(c.f, -1, 1, c.degree);

    const std::size_t slots = 64;
    std::vector<Complex> z(slots);
    Xoshiro256 rng(c.degree);
    for (auto& v : z) v = Complex(2 * rng.uniform_real() - 1, 0);

    const ChebyshevEvaluator cheby(env.evaluator);
    const Ciphertext out =
        cheby.evaluate(env.encrypt(z), series, env.mult_key);
    const auto got = env.decrypt(out);
    for (std::size_t i = 0; i < slots; ++i) {
        EXPECT_NEAR(got[i].real(), series.evaluate(z[i].real()), 2e-3)
            << "slot " << i;
        EXPECT_NEAR(got[i].imag(), 0.0, 2e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, HomomorphicChebyTest,
    ::testing::Values(ChebyCase{"sigmoid", sigmoid, 7},
                      ChebyCase{"sigmoid", sigmoid, 15},
                      ChebyCase{"sigmoid", sigmoid, 31},
                      ChebyCase{"sigmoid", sigmoid, 63},
                      ChebyCase{"sin3x", sin3, 15},
                      ChebyCase{"sin3x", sin3, 31},
                      ChebyCase{"sin3x", sin3, 63},
                      ChebyCase{"cos3x", cos3, 15},
                      ChebyCase{"cos3x", cos3, 31},
                      ChebyCase{"cos3x", cos3, 63}));

TEST(ChebyshevEvaluator, AsymmetricInterval)
{
    CkksParams params = testing::small_params();
    params.max_level = 8;
    auto& env = testing::cached_env("cheby", params);

    const auto series = ChebyshevSeries::interpolate(
        [](double x) { return std::log(x); }, 1, 4, 15);

    const std::size_t slots = 32;
    std::vector<Complex> z(slots);
    Xoshiro256 rng(99);
    for (auto& v : z) v = Complex(1.0 + 3.0 * rng.uniform_real(), 0);

    const ChebyshevEvaluator cheby(env.evaluator);
    const Ciphertext out =
        cheby.evaluate(env.encrypt(z), series, env.mult_key);
    const auto got = env.decrypt(out);
    for (std::size_t i = 0; i < slots; ++i) {
        EXPECT_NEAR(got[i].real(), std::log(z[i].real()), 5e-3);
    }
}

} // namespace
} // namespace bts
