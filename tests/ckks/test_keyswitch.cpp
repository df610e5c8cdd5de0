/**
 * @file
 * Pins of the key-switch pipeline that relinearization, re-keying,
 * rotation and conjugation share:
 *  - KeySwitchGolden: FNV-1a digests of each op's output ciphertext
 *    (every residue word, the scale's bits and the level). The digests
 *    were recorded before the automorphism moved into the NTT domain;
 *    NTT(sigma(a)) is an exact permutation of NTT(a), so any change of
 *    a single output bit is a bug, not a new golden value. The
 *    bootstrap digest was recorded again when sparse refreshes began
 *    to pack their real and imaginary parts through one EvalMod, again
 *    when EvalMod became a cosine series with double angles, and again
 *    (with the wide-prime dense LinearTransform digest) when
 *    LinearTransform became double hoisted and moved ModDown's
 *    rounding: each time a different computation of the same message.
 *  - KeySwitch.TransformCounts and DoubleHoistedStageCounts: the NTT
 *    limb transforms, BConv calls and key-switches each op pays, from
 *    the kernel and evaluator telemetry spans.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "ckks/dft_factor.h"
#include "runtime/telemetry/trace.h"
#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;

const std::vector<int> kAmounts = {1, 3, 17, 64, -1};

/** 64-bit FNV-1a over b's and a's residues, the scale bits, the level. */
u64
digest(const Ciphertext& ct)
{
    u64 h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](u64 word) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const RnsPoly* poly : {&ct.b, &ct.a}) {
        const std::size_t words = poly->num_primes() * poly->degree();
        for (std::size_t i = 0; i < words; ++i) mix(poly->data()[i]);
    }
    u64 scale_bits = 0;
    std::memcpy(&scale_bits, &ct.scale, sizeof scale_bits);
    mix(scale_bits);
    mix(static_cast<u64>(ct.level));
    return h;
}

/**
 * A fresh small_params() instance with rotation keys for kAmounts and
 * two level-6 inputs. Not the cached default_env(): its key generator
 * and encryptor advance with every call, and a digest must not depend
 * on which test ran first.
 */
struct KeySwitchCase
{
    KeySwitchCase() : env(testing::small_params())
    {
        keys = env.keygen.gen_rotation_keys(env.sk, kAmounts);
        x = env.encrypt(env.random_message(128, 1.0, 1601));
        y = env.encrypt(env.random_message(128, 1.0, 1602));
    }

    TestEnv env;
    RotationKeys keys;
    Ciphertext x;
    Ciphertext y;
};

TEST(KeySwitchGolden, Rotate)
{
    KeySwitchCase c;
    const std::vector<u64> expected = {
        0xbfbb909d6473f3a8ULL, 0xabf51b727b1a2501ULL, 0x72fab3667ce9ddd4ULL,
        0xa756d415d92e23afULL, 0xddde9f97e8043fffULL,
    };
    for (std::size_t i = 0; i < kAmounts.size(); ++i) {
        const int r = kAmounts[i];
        EXPECT_EQ(digest(c.env.evaluator.rotate(c.x, r, c.keys.at(r))),
                  expected[i])
            << "amount " << r;
    }
    Ciphertext low = c.x;
    c.env.evaluator.drop_level_inplace(low, 1);
    EXPECT_EQ(digest(c.env.evaluator.rotate(low, 3, c.keys.at(3))),
              0x2c58d295b3fd67f7ULL);
}

TEST(KeySwitchGolden, Conjugate)
{
    KeySwitchCase c;
    EXPECT_EQ(digest(c.env.evaluator.conjugate(c.x, c.env.conj_key)),
              0x79acceefb44e0bb8ULL);
}

TEST(KeySwitchGolden, RotateHoisted)
{
    KeySwitchCase c;
    const std::vector<int> amounts = {0, 1, 3, 17, 64, -1};
    const std::vector<u64> expected = {
        0x78c8c37134de83ecULL, 0x1e2212f871b77ca5ULL, 0x2a9c88487e7dbbaeULL,
        0x5df992dfca8b7ea9ULL, 0x68e9c3119e0b005cULL, 0x6bc49e828a5b7b4aULL,
    };
    const auto out = c.env.evaluator.rotate_hoisted(c.x, amounts, c.keys);
    ASSERT_EQ(out.size(), amounts.size());
    for (std::size_t i = 0; i < amounts.size(); ++i) {
        EXPECT_EQ(digest(out[i]), expected[i]) << "amount " << amounts[i];
    }
}

TEST(KeySwitchGolden, Mult)
{
    KeySwitchCase c;
    EXPECT_EQ(digest(c.env.evaluator.mult(c.x, c.y, c.env.mult_key)),
              0x9cf1e28e70345128ULL);
}

TEST(KeySwitchGolden, SwitchKey)
{
    KeySwitchCase c;
    const SecretKey sk_to = c.env.keygen.gen_secret_key();
    const EvalKey rekey = c.env.keygen.gen_rekey_key(c.env.sk, sk_to);
    EXPECT_EQ(digest(c.env.evaluator.switch_key(c.x, rekey)),
              0xbdde2cd59e2d05acULL);
}

/**
 * The widest primes the word size allows: a 61-bit base prime, two
 * 61-bit special primes and eight dnum slices at the top level. On a
 * 61-bit limb a lazy [0, 2q) residue times a canonical one is below
 * 2q^2, so a 128-bit sum of more than four such products outgrows
 * q * 2^64: the key-switch inner product over eight slices and a
 * 32-term BSGS inner sum must reduce mid-sum there. (dnum = L+1 would
 * leave one special prime, a 61-bit prime below q_0, and break the
 * P >= Q_j rule.) The digests were recorded before products began to
 * accumulate unreduced; like the ones above, a mismatch is a bug. The
 * dense LinearTransform digest alone was recorded again when the
 * transform became double hoisted (a different computation of the same
 * product, still checked against M*z).
 */
CkksParams
wide_prime_params()
{
    CkksParams p = testing::small_params();
    p.max_level = 15;
    p.dnum = 8;
    p.q0_bits = 61;
    p.special_bits = 61;
    return p;
}

struct WidePrimeCase
{
    WidePrimeCase() : env(wide_prime_params())
    {
        keys = env.keygen.gen_rotation_keys(env.sk, kAmounts);
        x = env.encrypt(env.random_message(64, 1.0, 1603));
        y = env.encrypt(env.random_message(64, 1.0, 1604));
    }

    TestEnv env;
    RotationKeys keys;
    Ciphertext x;
    Ciphertext y;
};

TEST(KeySwitchGolden, WidePrimesShape)
{
    WidePrimeCase c;
    EXPECT_EQ(c.env.ctx.num_slices(15), 8);
    EXPECT_EQ(c.env.ctx.q_primes()[0] >> 60, 1u);
    for (const u64 p : c.env.ctx.p_primes()) EXPECT_EQ(p >> 60, 1u);
}

TEST(KeySwitchGolden, WidePrimesRotate)
{
    WidePrimeCase c;
    const std::vector<u64> expected = {
        0xe57373e4116f334bULL, 0x551f569f2329b8e9ULL, 0xa4eb6378e2df5d3cULL,
        0x682da48546c4a0bdULL, 0x83d2bddb4d6125d0ULL,
    };
    for (std::size_t i = 0; i < kAmounts.size(); ++i) {
        const int r = kAmounts[i];
        EXPECT_EQ(digest(c.env.evaluator.rotate(c.x, r, c.keys.at(r))),
                  expected[i])
            << "amount " << r;
    }
    Ciphertext low = c.x;
    c.env.evaluator.drop_level_inplace(low, 9);
    EXPECT_EQ(digest(c.env.evaluator.rotate(low, 3, c.keys.at(3))),
              0x37ade6f1ba78d10fULL);
}

TEST(KeySwitchGolden, WidePrimesRotateHoisted)
{
    WidePrimeCase c;
    const std::vector<int> amounts = {0, 1, 3, 17, 64, -1};
    const std::vector<u64> expected = {
        0xe848f76c32dc7c08ULL, 0x7f1f6eaa8e44fd7fULL, 0x2f56437c98b4683fULL,
        0xe7f64ac5c61937fcULL, 0x7c8f357bd54c7412ULL, 0x9ec3a8bbecf3f85dULL,
    };
    const auto out = c.env.evaluator.rotate_hoisted(c.x, amounts, c.keys);
    ASSERT_EQ(out.size(), amounts.size());
    for (std::size_t i = 0; i < amounts.size(); ++i) {
        EXPECT_EQ(digest(out[i]), expected[i]) << "amount " << amounts[i];
    }
}

TEST(KeySwitchGolden, WidePrimesMult)
{
    WidePrimeCase c;
    const Evaluator& ev = c.env.evaluator;
    EXPECT_EQ(digest(ev.mult(c.x, c.y, c.env.mult_key)),
              0x162279c69453aacfULL);
    // A sum operand. The digest was recorded with the sum's residues
    // left unreduced in [0, 2q); the product is canonical either way.
    EXPECT_EQ(digest(ev.mult(ev.add(c.x, c.y), c.y, c.env.mult_key)),
              0x7ca870f12401e3fcULL);
}

TEST(KeySwitchGolden, WidePrimesDenseLinearTransform)
{
    WidePrimeCase c;
    const std::size_t n = 64;
    Xoshiro256 rng(1605);
    std::vector<std::vector<Complex>> matrix(n, std::vector<Complex>(n));
    for (auto& row : matrix) {
        for (Complex& v : row) {
            v = Complex(2 * rng.uniform_real() - 1,
                        2 * rng.uniform_real() - 1);
        }
    }
    const LinearTransform lt(c.env.ctx, c.env.encoder, matrix, 15, 16.0);
    // 64 diagonals on a 32-wide baby-step grid: 32 terms per giant
    // step, whose canonical products (each below q^2) sum to about
    // 8q^2, past q * 2^64 on the 61-bit limb in many coefficients (and
    // on the two 61-bit special primes, which the Q*P sums span too).
    ASSERT_EQ(lt.num_diagonals(), 64);
    ASSERT_EQ(lt.baby_steps(), 32);
    const RotationKeys keys =
        c.env.keygen.gen_rotation_keys(c.env.sk, lt.required_rotations());
    const Ciphertext out = lt.apply(c.env.evaluator, c.x, keys);
    EXPECT_EQ(digest(out), 0x989dde696ac089d9ULL);

    const std::vector<Complex> z = c.env.random_message(64, 1.0, 1603);
    std::vector<Complex> expected(n);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) expected[j] += matrix[j][k] * z[k];
    }
    EXPECT_LT(TestEnv::max_err(expected, c.env.decrypt(out)), 1e-3);
}

TEST(KeySwitchGolden, Bootstrap)
{
    testing::BootTestEnv be(31);
    auto& env = be.env;
    const Ciphertext ct = env.encrypt(env.random_message(64, 0.3, 32), 0);
    EXPECT_EQ(digest(be.boot->bootstrap(ct)), 0x2541d11ada3cae44ULL);
}

/** What one traced call paid: NTT limb transforms (the limb counts the
 *  ntt.* spans carry), BConv calls, and keyswitch and rotate.hoisted
 *  spans. Rescale's transforms run outside any ntt.* span and are not
 *  counted. */
struct TransformCounts
{
    i64 ntt_limbs = 0;
    int bconv = 0;
    int keyswitch = 0;
    int hoisted = 0;
};

TransformCounts
count_transforms(const std::function<void()>& fn)
{
    namespace tel = runtime::telemetry;
    tel::set_enabled(0);
    tel::reset_trace();
    tel::set_enabled(static_cast<u32>(tel::Category::kKernel) |
                     static_cast<u32>(tel::Category::kEvaluator));
    fn();
    tel::set_enabled(0);
    const tel::Trace trace = tel::collect_trace();
    tel::reset_trace();
    EXPECT_EQ(trace.total_dropped(), 0u);
    TransformCounts counts;
    for (const tel::ThreadTrace& th : trace.threads) {
        for (const tel::TraceEvent& ev : th.events) {
            if (std::strncmp(ev.name, "ntt.", 4) == 0) {
                counts.ntt_limbs += ev.arg;
            }
            counts.bconv += std::strncmp(ev.name, "bconv", 5) == 0;
            counts.keyswitch += std::strcmp(ev.name, "keyswitch") == 0;
            counts.hoisted += std::strcmp(ev.name, "rotate.hoisted") == 0;
        }
    }
    return counts;
}

TEST(KeySwitch, TransformCounts)
{
    // At small_params() level 6 (dnum 2: slices of 4 and 3 primes, 4
    // special primes) one key-switch pays 22 limb transforms in its
    // ModUps and 2 x 11 in its ModDowns, and 4 BConvs. A rotation or a
    // conjugation permutes NTT slots and pays exactly that; a hoisted
    // call pays one ModUp plus two ModDowns per amount.
#if !defined(BTS_TELEMETRY)
    GTEST_SKIP() << "built without BTS_TELEMETRY";
#endif
    KeySwitchCase c;
    const Evaluator& ev = c.env.evaluator;

    const TransformCounts mult =
        count_transforms([&] { (void)ev.mult(c.x, c.y, c.env.mult_key); });
    EXPECT_EQ(mult.ntt_limbs, 44);
    EXPECT_EQ(mult.bconv, 4);
    EXPECT_EQ(mult.keyswitch, 1);

    const std::vector<std::pair<const char*, std::function<void()>>> ops = {
        {"rotate", [&] { (void)ev.rotate(c.x, 3, c.keys.at(3)); }},
        {"conjugate", [&] { (void)ev.conjugate(c.x, c.env.conj_key); }},
        {"rotate_hoisted {3}",
         [&] { (void)ev.rotate_hoisted(c.x, {3}, c.keys); }},
    };
    for (const auto& [name, op] : ops) {
        const TransformCounts got = count_transforms(op);
        EXPECT_EQ(got.ntt_limbs, mult.ntt_limbs) << name;
        EXPECT_EQ(got.bconv, mult.bconv) << name;
        // One evaluator span per call: keyswitch, or rotate.hoisted.
        EXPECT_EQ(got.keyswitch + got.hoisted, 1) << name;
    }

    // Each further amount adds only its two ModDowns: 11 + 11 limb
    // transforms and 2 BConvs.
    const TransformCounts hoisted = count_transforms(
        [&] { (void)ev.rotate_hoisted(c.x, {0, 1, 3, 17, 64, -1}, c.keys); });
    EXPECT_EQ(hoisted.ntt_limbs, 132);
    EXPECT_EQ(hoisted.bconv, 12);
    EXPECT_EQ(hoisted.keyswitch, 0);
    EXPECT_EQ(hoisted.hoisted, 1);

    // A refresh's count includes its 21 rescales' own transforms: one
    // inverse and l forward limb transforms per polynomial.
    testing::BootTestEnv be(31);
    const Ciphertext ct =
        be.env.encrypt(be.env.random_message(64, 0.3, 32), 0);
    const TransformCounts boot =
        count_transforms([&] { (void)be.boot->bootstrap(ct); });
    EXPECT_EQ(boot.ntt_limbs, 1969);
    EXPECT_EQ(boot.bconv, 104);
    EXPECT_EQ(boot.keyswitch, 23);
}

TEST(KeySwitch, DoubleHoistedStageCounts)
{
    // One double-hoisted BSGS stage at functional_params(20), on a
    // level with s key-switch slices: each input's baby front pays one
    // ModUp (s BConvs) and its amounts pay no ModDown; each giant-step
    // rotation pays its sum's mask ModDown and an s-slice ModUp (s + 1);
    // the final ModDown pays 2. The StC head's half turn is a full
    // rotation (s + 2) ahead of the turned input's own front. Single
    // hoisting paid s + 2 per amount and per giant step instead.
#if !defined(BTS_TELEMETRY)
    GTEST_SKIP() << "built without BTS_TELEMETRY";
#endif
    testing::BootTestEnv be(31, {}, 20);
    TestEnv& env = be.env;
    const BootstrapConfig cfg = runtime::functional_boot_config();
    const FactoredDft cts(env.ctx, env.encoder, cfg.slots,
                          DftDirection::kCoeffToSlot, cfg.cts_radix,
                          env.ctx.max_level(), /*packed=*/true);
    const FactoredDft stc(env.ctx, env.encoder, cfg.slots,
                          DftDirection::kSlotToCoeff, cfg.stc_radix,
                          be.boot->stc_input_level(), /*packed=*/true);

    // CtS stage 1 (the packed tail, level 19, s = 3) and the StC head
    // (level 9, s = 2) each have 3 baby amounts and 3 giant-step
    // rotations. Single hoisted, they paid 24 and 32 BConvs (648 and
    // 544 NTT limb transforms).
    struct Stage
    {
        const char* name;
        const LinearTransform* lt;
        int turns; // half turns: 1 on the StC head
        int bconv;
    };
    const std::vector<Stage> stages = {
        {"CtS stage 1", &cts.stage(1), 0, 17},
        {"StC head", &stc.stage(0), 1, 19},
    };
    for (const Stage& st : stages) {
        const LinearTransform& lt = *st.lt;
        const int s = env.ctx.num_slices(lt.level());
        const int span = static_cast<int>(lt.dimension()) / (st.turns + 1);
        int babies = 0, giants = 0;
        for (const int r : lt.required_rotations()) {
            babies += r < lt.baby_steps();
            giants += r % lt.baby_steps() == 0 && r < span;
        }
        ASSERT_GT(babies, 0) << st.name;
        ASSERT_GT(giants, 0) << st.name;
        const Ciphertext ct = env.encrypt(
            env.random_message(lt.dimension(), 1.0, 33), lt.level());
        const TransformCounts got = count_transforms(
            [&] { (void)lt.apply(env.evaluator, ct, be.rot_keys); });
        const int fronts = 1 + st.turns;
        EXPECT_EQ(got.hoisted, fronts) << st.name;
        EXPECT_EQ(got.keyswitch, giants + st.turns) << st.name;
        EXPECT_EQ(got.bconv, fronts * s + giants * (s + 1) +
                                 st.turns * (s + 2) + 2)
            << st.name;
        EXPECT_EQ(got.bconv, st.bconv) << st.name;
    }
}

} // namespace
} // namespace bts
