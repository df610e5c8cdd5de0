#include "ckks/encoder.h"

#include <gtest/gtest.h>

#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;
using testing::default_env;

TEST(Encoder, RoundTripFullPacking)
{
    auto& env = default_env();
    const auto z = env.random_message(env.encoder.max_slots(), 1.0, 1);
    const Plaintext pt = env.encoder.encode(z, env.ctx.delta(), 2);
    const auto back = env.encoder.decode(pt);
    EXPECT_LT(TestEnv::max_err(z, back), 1e-8);
}

class EncoderSparseTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(EncoderSparseTest, RoundTripSparsePacking)
{
    auto& env = default_env();
    const std::size_t slots = GetParam();
    const auto z = env.random_message(slots, 1.0, slots);
    const Plaintext pt = env.encoder.encode(z, env.ctx.delta(), 1);
    const auto back = env.encoder.decode(pt);
    EXPECT_LT(TestEnv::max_err(z, back), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, EncoderSparseTest,
                         ::testing::Values(1, 2, 8, 64, 256, 512));

TEST(Encoder, FastDecodeMatchesDirectEvaluation)
{
    // The O(n log n) special FFT must agree with the O(n^2) evaluation
    // at the rotation-group roots.
    auto& env = default_env();
    for (std::size_t slots : {4u, 32u, 128u}) {
        const auto z = env.random_message(slots, 1.0, slots + 99);
        const Plaintext pt = env.encoder.encode(z, env.ctx.delta(), 0);
        const auto fast = env.encoder.decode(pt);
        const auto direct = env.encoder.decode_direct(pt);
        EXPECT_LT(TestEnv::max_err(fast, direct), 1e-7) << slots;
    }
}

TEST(Encoder, RingHomomorphismMultiplication)
{
    // Negacyclic polynomial multiplication == slot-wise multiplication:
    // the property that makes CKKS SIMD work at all.
    auto& env = default_env();
    const std::size_t slots = 256;
    const auto z1 = env.random_message(slots, 1.0, 5);
    const auto z2 = env.random_message(slots, 1.0, 6);
    Plaintext p1 = env.encoder.encode(z1, env.ctx.delta(), 1);
    const Plaintext p2 = env.encoder.encode(z2, env.ctx.delta(), 1);

    p1.poly.mul_inplace(p2.poly);
    p1.scale *= p2.scale;

    const auto got = env.encoder.decode(p1);
    std::vector<Complex> expected(slots);
    for (std::size_t i = 0; i < slots; ++i) expected[i] = z1[i] * z2[i];
    EXPECT_LT(TestEnv::max_err(expected, got), 1e-6);
}

TEST(Encoder, RingHomomorphismAddition)
{
    auto& env = default_env();
    const std::size_t slots = 128;
    const auto z1 = env.random_message(slots, 1.0, 7);
    const auto z2 = env.random_message(slots, 1.0, 8);
    Plaintext p1 = env.encoder.encode(z1, env.ctx.delta(), 1);
    const Plaintext p2 = env.encoder.encode(z2, env.ctx.delta(), 1);
    p1.poly.add_inplace(p2.poly);
    const auto got = env.encoder.decode(p1);
    std::vector<Complex> expected(slots);
    for (std::size_t i = 0; i < slots; ++i) expected[i] = z1[i] + z2[i];
    EXPECT_LT(TestEnv::max_err(expected, got), 1e-7);
}

TEST(Encoder, AutomorphismRotatesSlots)
{
    // The Galois map X -> X^{5^r} rotates the packed message by r
    // (Eq. 5 of the paper).
    auto& env = default_env();
    const std::size_t slots = 64;
    const auto z = env.random_message(slots, 1.0, 9);
    Plaintext pt = env.encoder.encode(z, env.ctx.delta(), 1);

    const int r = 5;
    const u64 exp = env.ctx.galois_exp_for_rotation(r);
    pt.poly.to_coeff(env.ctx.tables_for(pt.poly));
    pt.poly = pt.poly.automorphism(exp);
    pt.poly.to_ntt(env.ctx.tables_for(pt.poly));

    const auto got = env.encoder.decode(pt);
    std::vector<Complex> expected(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        expected[i] = z[(i + r) % slots];
    }
    EXPECT_LT(TestEnv::max_err(expected, got), 1e-7);
}

TEST(Encoder, ConjugationAutomorphism)
{
    auto& env = default_env();
    const std::size_t slots = 64;
    const auto z = env.random_message(slots, 1.0, 10);
    Plaintext pt = env.encoder.encode(z, env.ctx.delta(), 1);

    pt.poly.to_coeff(env.ctx.tables_for(pt.poly));
    pt.poly = pt.poly.automorphism(env.ctx.galois_exp_conjugation());
    pt.poly.to_ntt(env.ctx.tables_for(pt.poly));

    const auto got = env.encoder.decode(pt);
    std::vector<Complex> expected(slots);
    for (std::size_t i = 0; i < slots; ++i) expected[i] = std::conj(z[i]);
    EXPECT_LT(TestEnv::max_err(expected, got), 1e-7);
}

TEST(Encoder, CoeffEncodeDecodeRoundTrip)
{
    auto& env = default_env();
    std::vector<double> coeffs(env.ctx.n(), 0.0);
    Xoshiro256 rng(11);
    for (auto& c : coeffs) c = 2 * rng.uniform_real() - 1;
    const Plaintext pt =
        env.encoder.encode_coeffs(coeffs, env.ctx.delta(), 1, 64);
    const auto back = env.encoder.decode_coeffs(pt);
    double worst = 0;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
        worst = std::max(worst, std::abs(coeffs[i] - back[i]));
    }
    EXPECT_LT(worst, 1e-9);
}

TEST(Encoder, ScalarEncode)
{
    auto& env = default_env();
    const Plaintext pt =
        env.encoder.encode_scalar(Complex(0.5, -0.25), 32, env.ctx.delta(), 1);
    for (const auto& v : env.encoder.decode(pt)) {
        EXPECT_NEAR(v.real(), 0.5, 1e-9);
        EXPECT_NEAR(v.imag(), -0.25, 1e-9);
    }
}

TEST(Encoder, RejectsBadInputs)
{
    auto& env = default_env();
    // Non-power-of-two slot count.
    EXPECT_THROW(env.encoder.encode(std::vector<Complex>(3), 1e10, 1),
                 std::invalid_argument);
    // Too many slots.
    EXPECT_THROW(
        env.encoder.encode(std::vector<Complex>(env.ctx.n()), 1e10, 1),
        std::invalid_argument);
    // Scale overflow.
    EXPECT_THROW(env.encoder.encode({Complex(1e30, 0)}, 1e40, 1),
                 std::invalid_argument);
}

TEST(Encoder, EncodingErrorScalesInversely)
{
    // Rounding error should shrink as the scale grows.
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 12);
    const Plaintext lo = env.encoder.encode(z, 0x1.0p20, 1);
    const Plaintext hi = env.encoder.encode(z, 0x1.0p40, 1);
    const double err_lo = TestEnv::max_err(z, env.encoder.decode(lo));
    const double err_hi = TestEnv::max_err(z, env.encoder.decode(hi));
    EXPECT_LT(err_hi, err_lo / 1000);
}

} // namespace
} // namespace bts
