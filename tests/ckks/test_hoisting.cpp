#include <gtest/gtest.h>

#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;
using testing::default_env;

TEST(Hoisting, MatchesIndividualRotations)
{
    // rotate_hoisted must agree with rotate() for every amount — the
    // shared ModUp is an exact refactoring up to BConv's standard
    // approximation class.
    auto& env = default_env();
    const std::size_t slots = 128;
    const auto z = env.random_message(slots, 1.0, 301);
    const Ciphertext ct = env.encrypt(z);

    const std::vector<int> amounts = {1, 3, 17, 64};
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, amounts);

    const auto hoisted = env.evaluator.rotate_hoisted(ct, amounts, keys);
    ASSERT_EQ(hoisted.size(), amounts.size());
    for (std::size_t i = 0; i < amounts.size(); ++i) {
        const Ciphertext single =
            env.evaluator.rotate(ct, amounts[i], keys.at(amounts[i]));
        EXPECT_LT(TestEnv::max_err(env.decrypt(hoisted[i]),
                                   env.decrypt(single)),
                  1e-4)
            << "amount " << amounts[i];
    }
}

TEST(Hoisting, DecryptsToRotatedMessage)
{
    auto& env = default_env();
    const std::size_t slots = 64;
    const auto z = env.random_message(slots, 1.0, 302);
    const Ciphertext ct = env.encrypt(z);
    const std::vector<int> amounts = {2, 5};
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, amounts);
    const auto hoisted = env.evaluator.rotate_hoisted(ct, amounts, keys);
    for (std::size_t i = 0; i < amounts.size(); ++i) {
        std::vector<Complex> expected(slots);
        for (std::size_t j = 0; j < slots; ++j) {
            expected[j] = z[(j + amounts[i]) % slots];
        }
        EXPECT_LT(TestEnv::max_err(expected, env.decrypt(hoisted[i])),
                  1e-4);
    }
}

TEST(Hoisting, GroupedCallBitEqualsPerAmountHoistedCalls)
{
    // THE soundness pin for the rotation-CSE pass: the runtime
    // Executor dispatches every kHRot through the hoisted entry point
    // with a single amount, and the pass groups rotations of one value
    // into a single multi-amount call. The two must be bit-identical —
    // the shared decompose+ModUp prefix is amount-independent, so
    // grouping changes how often the prefix is paid, never a single
    // limb of any result.
    auto& env = default_env();
    const auto z = env.random_message(128, 1.0, 306);
    const Ciphertext ct = env.encrypt(z);
    const std::vector<int> amounts = {1, 3, 17, 64};
    const RotationKeys keys =
        env.keygen.gen_rotation_keys(env.sk, amounts);

    const auto grouped = env.evaluator.rotate_hoisted(ct, amounts, keys);
    ASSERT_EQ(grouped.size(), amounts.size());
    for (std::size_t i = 0; i < amounts.size(); ++i) {
        // Pre-resolved-key overload with one amount: the Executor's
        // per-node path.
        const EvalKey& key = keys.at(amounts[i]);
        const auto single = env.evaluator.rotate_hoisted(
            ct, {amounts[i]}, std::vector<const EvalKey*>{&key});
        ASSERT_EQ(single.size(), 1u);
        EXPECT_TRUE(testing::ct_equal(grouped[i], single[0]))
            << "amount " << amounts[i];
        // And the RotationKeys overload agrees too.
        const auto single2 =
            env.evaluator.rotate_hoisted(ct, {amounts[i]}, keys);
        EXPECT_TRUE(testing::ct_equal(grouped[i], single2[0]))
            << "amount " << amounts[i];
    }
}

TEST(Hoisting, ExtendedPairsModDownToTheHoistedRotations)
{
    // The contract double-hoisted transforms sum over: each
    // rotate_hoisted_ext pair is P times its rotation over Q*P, so its
    // ModDown is rotate_hoisted's output residue for residue, and
    // to_ext's pair ModDowns to its input exactly.
    auto& env = default_env();
    const Ciphertext ct = env.encrypt(env.random_message(128, 1.0, 306));
    const std::vector<int> amounts = {1, 3, 17, 64};
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, amounts);
    std::vector<const EvalKey*> resolved;
    for (const int r : amounts) resolved.push_back(&keys.at(r));
    const auto hoisted = env.evaluator.rotate_hoisted(ct, amounts, keys);
    auto pairs = env.evaluator.rotate_hoisted_ext(ct, resolved);
    ASSERT_EQ(pairs.size(), amounts.size());
    const auto mod_down = [&](std::pair<RnsPoly, RnsPoly>& pair) {
        env.evaluator.mod_down_inplace(pair.first, ct.level);
        env.evaluator.mod_down_inplace(pair.second, ct.level);
        return Ciphertext{std::move(pair.first), std::move(pair.second),
                          ct.scale, ct.level, ct.slots};
    };
    for (std::size_t i = 0; i < amounts.size(); ++i) {
        EXPECT_TRUE(testing::ct_equal(mod_down(pairs[i]), hoisted[i]))
            << "amount " << amounts[i];
    }
    auto own = env.evaluator.to_ext(ct);
    EXPECT_TRUE(testing::ct_equal(mod_down(own), ct));
}

TEST(Hoisting, ZeroAmountIsIdentity)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 303);
    const Ciphertext ct = env.encrypt(z);
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, {1});
    const auto out = env.evaluator.rotate_hoisted(ct, {0, 1}, keys);
    EXPECT_LT(TestEnv::max_err(z, env.decrypt(out[0])), 1e-6);
}

TEST(Hoisting, MissingKeyRejected)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 304);
    const Ciphertext ct = env.encrypt(z);
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, {1});
    EXPECT_THROW(env.evaluator.rotate_hoisted(ct, {1, 2}, keys),
                 std::invalid_argument);
}

TEST(Hoisting, WorksAtLowLevel)
{
    auto& env = default_env();
    const auto z = env.random_message(64, 1.0, 305);
    Ciphertext ct = env.encrypt(z);
    env.evaluator.drop_level_inplace(ct, 1);
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, {7});
    const auto out = env.evaluator.rotate_hoisted(ct, {7}, keys);
    std::vector<Complex> expected(z.size());
    for (std::size_t j = 0; j < z.size(); ++j) {
        expected[j] = z[(j + 7) % z.size()];
    }
    EXPECT_LT(TestEnv::max_err(expected, env.decrypt(out[0])), 1e-4);
    EXPECT_EQ(out[0].level, 1);
}

} // namespace
} // namespace bts
