#include "ckks/evaluator.h"

#include <gtest/gtest.h>

#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;
using testing::ct_equal;
using testing::default_env;

std::vector<Complex>
elementwise(const std::vector<Complex>& a, const std::vector<Complex>& b,
            const std::function<Complex(Complex, Complex)>& op)
{
    std::vector<Complex> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = op(a[i], b[i]);
    return out;
}

TEST(Evaluator, HAdd)
{
    auto& env = default_env();
    const auto z1 = env.random_message(128, 1.0, 31);
    const auto z2 = env.random_message(128, 1.0, 32);
    const Ciphertext ct = env.evaluator.add(env.encrypt(z1), env.encrypt(z2));
    const auto expected = elementwise(
        z1, z2, [](Complex a, Complex b) { return a + b; });
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(ct)), 1e-6);
}

TEST(Evaluator, HSubAndNegate)
{
    auto& env = default_env();
    const auto z1 = env.random_message(64, 1.0, 33);
    const auto z2 = env.random_message(64, 1.0, 34);
    const auto diff = env.evaluator.sub(env.encrypt(z1), env.encrypt(z2));
    const auto expected = elementwise(
        z1, z2, [](Complex a, Complex b) { return a - b; });
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(diff)), 1e-6);

    const auto neg = env.evaluator.negate(env.encrypt(z1));
    std::vector<Complex> zneg(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i) zneg[i] = -z1[i];
    EXPECT_LT(TestEnv::max_err(zneg, env.decrypt(neg)), 1e-6);
}

TEST(Evaluator, AddAlignsLevels)
{
    auto& env = default_env();
    const auto z1 = env.random_message(64, 1.0, 35);
    const auto z2 = env.random_message(64, 1.0, 36);
    const Ciphertext high = env.encrypt(z1, 5);
    const Ciphertext low = env.encrypt(z2, 2);
    const Ciphertext sum = env.evaluator.add(high, low);
    EXPECT_EQ(sum.level, 2);
    const auto expected = elementwise(
        z1, z2, [](Complex a, Complex b) { return a + b; });
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(sum)), 1e-6);
}

TEST(Evaluator, MixedLevelAddsMatchLevelDroppedOperands)
{
    // An add or sub of a level-5 and a level-2 ciphertext, in either
    // operand order, equals bit for bit the same op on the level-dropped
    // copy, and leaves both operands as they were. A plaintext encoded
    // above the ciphertext's level adds like the same message encoded
    // at that level.
    auto& env = default_env();
    const Evaluator& ev = env.evaluator;
    const auto z1 = env.random_message(64, 1.0, 62);
    const auto z2 = env.random_message(64, 1.0, 63);
    const Ciphertext high = env.encrypt(z1, 5);
    const Ciphertext low = env.encrypt(z2, 2);
    const Ciphertext high_before = high;
    const Ciphertext low_before = low;
    Ciphertext dropped = high;
    ev.drop_level_inplace(dropped, 2);

    EXPECT_TRUE(ct_equal(ev.add(high, low), ev.add(dropped, low)));
    EXPECT_TRUE(ct_equal(ev.add(low, high), ev.add(low, dropped)));
    EXPECT_TRUE(ct_equal(ev.sub(high, low), ev.sub(dropped, low)));
    EXPECT_TRUE(ct_equal(ev.sub(low, high), ev.sub(low, dropped)));
    EXPECT_TRUE(ct_equal(high, high_before));
    EXPECT_TRUE(ct_equal(low, low_before));

    const Plaintext pt6 = env.encoder.encode(z1, env.ctx.delta(), 6);
    const Plaintext pt2 = env.encoder.encode(z1, env.ctx.delta(), 2);
    EXPECT_TRUE(ct_equal(ev.add_plain(low, pt6), ev.add_plain(low, pt2)));
    EXPECT_TRUE(ct_equal(ev.sub_plain(low, pt6), ev.sub_plain(low, pt2)));
}

TEST(Evaluator, AddRejectsScaleMismatch)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 37);
    const Plaintext p1 = env.encoder.encode(z, env.ctx.delta(), 2);
    const Plaintext p2 = env.encoder.encode(z, env.ctx.delta() * 2, 2);
    const Ciphertext c1 = env.encryptor.encrypt_symmetric(p1, env.sk);
    const Ciphertext c2 = env.encryptor.encrypt_symmetric(p2, env.sk);
    EXPECT_THROW(env.evaluator.add(c1, c2), std::invalid_argument);
}

TEST(Evaluator, AddRejectsNonPositiveScales)
{
    // Regression: the scale-match check divided s1/s2 with no guard, so
    // a zero scale passed the tolerance test via inf/nan semantics
    // instead of failing loudly.
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 38);
    const Ciphertext good = env.encrypt(z);
    for (double bad_scale : {0.0, -env.ctx.delta()}) {
        Ciphertext bad = good;
        bad.scale = bad_scale;
        EXPECT_THROW(env.evaluator.add(good, bad), std::invalid_argument);
        EXPECT_THROW(env.evaluator.add(bad, good), std::invalid_argument);
        EXPECT_THROW(env.evaluator.sub(good, bad), std::invalid_argument);
    }
}

class EvaluatorMultTest : public ::testing::TestWithParam<int>
{};

TEST_P(EvaluatorMultTest, HMultAcrossDnum)
{
    // HMult correctness for dnum = 1, 2, max — exercising every
    // key-switching slice configuration (Eq. 7).
    CkksParams params = testing::small_params();
    params.dnum = GetParam();
    params.max_level = 5;
    // At dnum == L+1 each Q_j is a single prime; the special primes must
    // still dominate the 50-bit q_0.
    params.special_bits = 52;
    auto& env = testing::cached_env("mult_dnum" + std::to_string(GetParam()),
                                    params);

    const auto z1 = env.random_message(128, 1.0, 41);
    const auto z2 = env.random_message(128, 1.0, 42);
    Ciphertext prod =
        env.evaluator.mult(env.encrypt(z1), env.encrypt(z2), env.mult_key);
    EXPECT_NEAR(prod.scale, env.ctx.delta() * env.ctx.delta(),
                prod.scale * 1e-9);
    env.evaluator.rescale_inplace(prod);
    EXPECT_EQ(prod.level, 4);

    const auto expected = elementwise(
        z1, z2, [](Complex a, Complex b) { return a * b; });
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(prod)), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(DnumSweep, EvaluatorMultTest,
                         ::testing::Values(1, 2, 3, 6));

TEST(Evaluator, MultChainToBottom)
{
    // Repeated squaring down to level 0: z^(2^L) stays accurate.
    auto& env = default_env();
    std::vector<Complex> z(64, Complex(0.9, 0.0));
    Ciphertext ct = env.encrypt(z);
    double expected = 0.9;
    for (int l = env.ctx.max_level(); l >= 1; --l) {
        ct = env.evaluator.square(ct, env.mult_key);
        env.evaluator.rescale_inplace(ct);
        expected *= expected;
    }
    EXPECT_EQ(ct.level, 0);
    const auto got = env.decrypt(ct);
    EXPECT_NEAR(got[0].real(), expected, 1e-3);
}

TEST(Evaluator, RescaleTracksScale)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 43);
    Ciphertext ct = env.encrypt(z);
    Ciphertext prod = env.evaluator.mult(ct, ct, env.mult_key);
    const double before = prod.scale;
    env.evaluator.rescale_inplace(prod);
    const u64 dropped = env.ctx.q_primes()[env.ctx.max_level()];
    EXPECT_DOUBLE_EQ(prod.scale, before / static_cast<double>(dropped));
}

TEST(Evaluator, RescaleRequiresLevel)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 44);
    Ciphertext ct = env.encrypt(z, 0);
    EXPECT_THROW(env.evaluator.rescale_inplace(ct), std::invalid_argument);
}

class EvaluatorRotTest : public ::testing::TestWithParam<int>
{};

TEST_P(EvaluatorRotTest, HRotAmounts)
{
    auto& env = default_env();
    const int r = GetParam();
    const std::size_t slots = 128;
    const auto z = env.random_message(slots, 1.0, 45 + r);
    const EvalKey key = env.keygen.gen_rotation_key(env.sk, r);
    const Ciphertext rot = env.evaluator.rotate(env.encrypt(z), r, key);
    std::vector<Complex> expected(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        expected[i] = z[(i + r) % slots];
    }
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(rot)), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Amounts, EvaluatorRotTest,
                         ::testing::Values(1, 2, 7, 64, 127));

TEST(Evaluator, RotateSparsePacking)
{
    // Rotation semantics must hold on sparsely packed ciphertexts — the
    // property sparse bootstrapping depends on.
    auto& env = default_env();
    const std::size_t slots = 32;
    const auto z = env.random_message(slots, 1.0, 51);
    const EvalKey key = env.keygen.gen_rotation_key(env.sk, 3);
    const Ciphertext rot = env.evaluator.rotate(env.encrypt(z), 3, key);
    std::vector<Complex> expected(slots);
    for (std::size_t i = 0; i < slots; ++i) expected[i] = z[(i + 3) % slots];
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(rot)), 1e-4);
}

TEST(Evaluator, RotateComposes)
{
    auto& env = default_env();
    const std::size_t slots = 64;
    const auto z = env.random_message(slots, 1.0, 52);
    const EvalKey k2 = env.keygen.gen_rotation_key(env.sk, 2);
    const EvalKey k3 = env.keygen.gen_rotation_key(env.sk, 3);
    const EvalKey k5 = env.keygen.gen_rotation_key(env.sk, 5);
    const Ciphertext via5 = env.evaluator.rotate(env.encrypt(z), 5, k5);
    const Ciphertext via23 = env.evaluator.rotate(
        env.evaluator.rotate(env.encrypt(z), 2, k2), 3, k3);
    EXPECT_LT(TestEnv::max_err(env.decrypt(via5), env.decrypt(via23)), 1e-4);
}

TEST(Evaluator, Conjugate)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 53);
    const Ciphertext conj =
        env.evaluator.conjugate(env.encrypt(z), env.conj_key);
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = std::conj(z[i]);
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(conj)), 1e-4);
}

TEST(Evaluator, RotationKeyMismatchRejected)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 54);
    const EvalKey k2 = env.keygen.gen_rotation_key(env.sk, 2);
    EXPECT_THROW(env.evaluator.rotate(env.encrypt(z), 3, k2),
                 std::invalid_argument);
}

TEST(Evaluator, PMultAndPAdd)
{
    auto& env = default_env();
    const auto z1 = env.random_message(64, 1.0, 55);
    const auto z2 = env.random_message(64, 1.0, 56);
    const Plaintext pt = env.encoder.encode(z2, env.ctx.delta(), 6);

    Ciphertext prod = env.evaluator.mult_plain(env.encrypt(z1), pt);
    env.evaluator.rescale_inplace(prod);
    const auto expected_mul = elementwise(
        z1, z2, [](Complex a, Complex b) { return a * b; });
    EXPECT_LT(TestEnv::max_err(expected_mul, env.decrypt(prod)), 1e-5);

    const Ciphertext sum = env.evaluator.add_plain(env.encrypt(z1), pt);
    const auto expected_add = elementwise(
        z1, z2, [](Complex a, Complex b) { return a + b; });
    EXPECT_LT(TestEnv::max_err(expected_add, env.decrypt(sum)), 1e-6);

    const Ciphertext diff = env.evaluator.sub_plain(env.encrypt(z1), pt);
    const auto expected_sub = elementwise(
        z1, z2, [](Complex a, Complex b) { return a - b; });
    EXPECT_LT(TestEnv::max_err(expected_sub, env.decrypt(diff)), 1e-6);
}

TEST(Evaluator, PlainOpsRejectRebasedPlaintext)
{
    // A plaintext whose prime chain has the right COUNT but is not a
    // prefix of the ciphertext's (e.g. re-based onto {q_1, q_2}) used
    // to slip through the level check and silently produce garbage.
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 61);
    Ciphertext ct = env.encrypt(z);
    env.evaluator.drop_level_inplace(ct, 1); // chain {q_0, q_1}

    const auto& q = env.ctx.q_primes();
    const std::vector<u64> rebased_chain{q[1], q[2]};
    Plaintext rebased;
    rebased.poly = RnsPoly(env.ctx.n(), rebased_chain, Domain::kNtt);
    rebased.scale = ct.scale;
    rebased.level = 1;
    rebased.slots = 64;

    EXPECT_THROW(env.evaluator.mult_plain(ct, rebased),
                 std::invalid_argument);
    EXPECT_THROW(env.evaluator.add_plain(ct, rebased),
                 std::invalid_argument);
    EXPECT_THROW(env.evaluator.sub_plain(ct, rebased),
                 std::invalid_argument);
}

TEST(Evaluator, ConstOps)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 57);

    // CMult by a real constant.
    Ciphertext scaled =
        env.evaluator.mult_const(env.encrypt(z), 0.37, env.ctx.delta());
    env.evaluator.rescale_inplace(scaled);
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = z[i] * 0.37;
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(scaled)), 1e-6);

    // CAdd of a complex constant.
    Ciphertext shifted = env.encrypt(z);
    env.evaluator.add_const_inplace(shifted, Complex(0.5, -0.125));
    for (std::size_t i = 0; i < z.size(); ++i) {
        expected[i] = z[i] + Complex(0.5, -0.125);
    }
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(shifted)), 1e-6);
}

TEST(Evaluator, MultByIIsExact)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 58);
    const Ciphertext ct = env.encrypt(z);
    const Ciphertext rotated = env.evaluator.mult_by_i(ct);
    // No level or scale change.
    EXPECT_EQ(rotated.level, ct.level);
    EXPECT_DOUBLE_EQ(rotated.scale, ct.scale);
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) {
        expected[i] = z[i] * Complex(0, 1);
    }
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(rotated)), 1e-6);
    // Applying it four times is the identity.
    Ciphertext four = ct;
    for (int k = 0; k < 4; ++k) four = env.evaluator.mult_by_i(four);
    EXPECT_LT(TestEnv::max_err(z, env.decrypt(four)), 1e-6);
}

TEST(Evaluator, MultConstComplex)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 59);
    const Complex c(0.3, -0.7);
    Ciphertext out =
        env.evaluator.mult_const_complex(env.encrypt(z), c, env.ctx.delta());
    env.evaluator.rescale_inplace(out);
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = z[i] * c;
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(out)), 1e-6);
}

TEST(Evaluator, MultConstToScaleHitsTarget)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 60);
    const double target = env.ctx.delta();
    const Ciphertext out =
        env.evaluator.mult_const_to_scale(env.encrypt(z), 0.25, target);
    EXPECT_DOUBLE_EQ(out.scale, target);
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = z[i] * 0.25;
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(out)), 1e-6);
}

TEST(Evaluator, DropLevelPreservesMessage)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 61);
    Ciphertext ct = env.encrypt(z);
    env.evaluator.drop_level_inplace(ct, 1);
    EXPECT_EQ(ct.level, 1);
    EXPECT_LT(TestEnv::max_err(z, env.decrypt(ct)), 1e-6);
    EXPECT_THROW(env.evaluator.drop_level_inplace(ct, 3),
                 std::invalid_argument);
}

TEST(Evaluator, ModRaiseAddsMultipleOfQ0)
{
    // After ModRaise the message is m + q0*I: every raised coefficient
    // must differ from the original by an exact multiple of q0.
    auto& env = default_env();
    const auto z = env.random_message(64, 0.3, 62);
    Ciphertext ct = env.encrypt(z);
    env.evaluator.drop_level_inplace(ct, 0);
    const Ciphertext raised = env.evaluator.mod_raise(ct);
    EXPECT_EQ(raised.level, env.ctx.max_level());

    Plaintext dec_lo = env.decryptor.decrypt(ct, env.sk);
    Plaintext dec_hi = env.decryptor.decrypt(raised, env.sk);
    dec_lo.scale = 1.0; // read raw integer coefficients
    dec_hi.scale = 1.0;
    const auto lo = env.encoder.decode_coeffs(dec_lo);
    const auto hi = env.encoder.decode_coeffs(dec_hi);

    const double q0 = static_cast<double>(env.ctx.q_primes()[0]);
    double max_i = 0;
    for (std::size_t c = 0; c < lo.size(); ++c) {
        const double ratio = (hi[c] - lo[c]) / q0;
        EXPECT_NEAR(ratio, std::round(ratio), 1e-6) << c;
        max_i = std::max(max_i, std::abs(ratio));
    }
    // I is small (sparse secret): the whole point of EvalMod's [-K, K].
    EXPECT_LE(max_i, 12.0);
    EXPECT_GT(max_i, 0.0); // raising a dense ciphertext must wrap somewhere
}

TEST(Evaluator, KeySwitchNoiseIsBounded)
{
    // HMult then decrypt: compare against plaintext product; noise must
    // be far below the message at every dnum.
    auto& env = default_env();
    const auto z = env.random_message(256, 1.0, 63);
    Ciphertext sq = env.evaluator.square(env.encrypt(z), env.mult_key);
    env.evaluator.rescale_inplace(sq);
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = z[i] * z[i];
    const double err = TestEnv::max_err(expected, env.decrypt(sq));
    EXPECT_LT(err, 1e-4);
}

} // namespace
} // namespace bts
