#include "math/mod_arith.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace bts {
namespace {

TEST(ModArith, AddSubMod)
{
    const u64 q = (1ULL << 59) + 123;
    EXPECT_EQ(add_mod(q - 1, 1, q), 0u);
    EXPECT_EQ(add_mod(q - 1, q - 1, q), q - 2);
    EXPECT_EQ(sub_mod(0, 1, q), q - 1);
    EXPECT_EQ(sub_mod(5, 5, q), 0u);
}

TEST(ModArith, MulModMatchesInt128)
{
    Xoshiro256 rng(1);
    const u64 q = (1ULL << 60) - 93;
    for (int i = 0; i < 1000; ++i) {
        const u64 a = rng.uniform(q), b = rng.uniform(q);
        EXPECT_EQ(mul_mod(a, b, q),
                  static_cast<u64>((static_cast<u128>(a) * b) % q));
    }
}

TEST(ModArith, PowMod)
{
    const u64 q = 1000000007;
    EXPECT_EQ(pow_mod(2, 10, q), 1024u);
    EXPECT_EQ(pow_mod(5, 0, q), 1u);
    // Fermat: a^(q-1) == 1 mod prime q.
    EXPECT_EQ(pow_mod(123456, q - 1, q), 1u);
}

TEST(ModArith, InvMod)
{
    Xoshiro256 rng(2);
    const u64 q = (1ULL << 50) + 4867; // a prime-ish odd modulus test below
    // Use a known prime for guaranteed invertibility.
    const u64 p = 1000000007;
    for (int i = 0; i < 200; ++i) {
        const u64 a = 1 + rng.uniform(p - 1);
        const u64 inv = inv_mod(a, p);
        EXPECT_EQ(mul_mod(a, inv, p), 1u);
    }
    (void)q;
}

TEST(ModArith, InvModNonInvertibleThrows)
{
    EXPECT_THROW(inv_mod(6, 9), std::invalid_argument);
}

TEST(ModArith, Gcd)
{
    EXPECT_EQ(gcd_u64(12, 18), 6u);
    EXPECT_EQ(gcd_u64(17, 5), 1u);
    EXPECT_EQ(gcd_u64(0, 7), 7u);
}

TEST(ModArith, SignedConversions)
{
    const u64 q = 101;
    EXPECT_EQ(signed_to_mod(-1, q), 100u);
    EXPECT_EQ(signed_to_mod(-102, q), 100u);
    EXPECT_EQ(signed_to_mod(5, q), 5u);
    EXPECT_EQ(mod_to_signed(100, q), -1);
    EXPECT_EQ(mod_to_signed(50, q), 50);
    EXPECT_EQ(mod_to_signed(51, q), -50);
    // Round trip for centered representatives.
    for (i64 v = -50; v <= 50; ++v) {
        EXPECT_EQ(mod_to_signed(signed_to_mod(v, q), q), v);
    }
}

TEST(ModArith, BarrettMatchesDirect)
{
    Xoshiro256 rng(3);
    for (u64 q : {(1ULL << 30) + 3, (1ULL << 45) + 59, (1ULL << 60) - 93}) {
        const Barrett barrett(q);
        for (int i = 0; i < 500; ++i) {
            const u64 a = rng.uniform(q), b = rng.uniform(q);
            EXPECT_EQ(barrett.mul(a, b), mul_mod(a, b, q));
        }
        // Large 128-bit inputs below q * 2^64.
        for (int i = 0; i < 500; ++i) {
            const u128 v = (static_cast<u128>(rng.uniform(q)) << 64) |
                           rng.next();
            EXPECT_EQ(barrett.reduce(v), static_cast<u64>(v % q));
        }
    }
}

TEST(ModArith, BarrettAtItsInputBound)
{
    // reduce() takes any v < m * 2^64 and corrects once: the largest
    // inputs, and multiples of m (and one below) near the top, are
    // where a quotient one short would show.
    const u128 two64 = static_cast<u128>(1) << 64;
    for (int bits = 20; bits <= 61; ++bits) {
        const u64 top = 1ULL << bits;
        const u64 moduli[] = {(top >> 1) + 1, top - 1,
                              top - 1 - 2 * static_cast<u64>(bits)};
        for (const u64 m : moduli) {
            const Barrett barrett(m);
            const auto check = [&](u128 v) {
                EXPECT_EQ(barrett.reduce(v), static_cast<u64>(v % m))
                    << "m = " << m << ", v / 2^64 = "
                    << static_cast<u64>(v >> 64);
            };
            check(static_cast<u128>(m) * two64 - 1);
            for (u64 k = 1; k <= 4; ++k) {
                const u128 km = static_cast<u128>(m) * (two64 - k);
                check(km);
                check(km - 1);
            }
            check(static_cast<u128>(m) * m); // the largest canonical product
            check(0);
#ifndef NDEBUG
            // Past the bound a lazy sum has outgrown its term budget.
            EXPECT_THROW(barrett.reduce(static_cast<u128>(m) * two64),
                         std::logic_error);
#endif
        }
    }
}

TEST(ModArith, ShoupMatchesDirect)
{
    Xoshiro256 rng(4);
    const u64 q = (1ULL << 55) + 1237;
    for (int i = 0; i < 300; ++i) {
        const u64 w = rng.uniform(q);
        const ShoupMul s(w, q);
        for (int j = 0; j < 10; ++j) {
            const u64 x = rng.uniform(q);
            EXPECT_EQ(s.mul(x, q), mul_mod(x, w, q));
        }
    }
}

TEST(ModArith, AddModRejectsUnreducedInputsInDebug)
{
    // The documented contract is "inputs already reduced"; the old code
    // silently tolerated overflow via a wrap guard. Debug builds now
    // fault loudly instead.
#ifndef NDEBUG
    const u64 q = (1ULL << 59) + 123;
    EXPECT_THROW(add_mod(q, 1, q), std::logic_error);
    EXPECT_THROW(add_mod(0, q + 5, q), std::logic_error);
    EXPECT_THROW(sub_mod(q + 2, 1, q), std::logic_error);
#else
    GTEST_SKIP() << "contract asserts compile out under NDEBUG";
#endif
}

TEST(ModArith, LazyPrimitives)
{
    Xoshiro256 rng(6);
    const u64 q = (1ULL << 60) - 93; // near the top of the lazy range
    const u64 two_q = 2 * q;
    for (int i = 0; i < 500; ++i) {
        const u64 a = rng.uniform(two_q); // lazy domain inputs
        const u64 b = rng.uniform(two_q);
        // add_lazy: plain sum in [0, 4q).
        EXPECT_EQ(add_lazy(a, b), a + b);
        EXPECT_LT(add_lazy(a, b), 4 * q);
        // sub_lazy_2q: shifted difference in (0, 4q), congruent a - b.
        const u64 d = sub_lazy_2q(a, b, two_q);
        EXPECT_LT(d, 4 * q);
        EXPECT_EQ(d % q, sub_mod(a % q, b % q, q));
        // reduce_2q folds [0, 4q) into [0, 2q) preserving the residue.
        const u64 r2 = reduce_2q(add_lazy(a, b), two_q);
        EXPECT_LT(r2, two_q);
        EXPECT_EQ(r2 % q, (a + b) % q);
        // reduce_4q_to_q canonicalizes.
        const u64 r1 = reduce_4q_to_q(add_lazy(a, b), q);
        EXPECT_LT(r1, q);
        EXPECT_EQ(r1, (a + b) % q);
    }
}

TEST(ModArith, ShoupMulLazyStaysBelow2qAndIsCongruent)
{
    Xoshiro256 rng(7);
    const u64 q = (1ULL << 60) + 325; // prime-shaped; only w < q matters
    for (int i = 0; i < 200; ++i) {
        const u64 w = rng.uniform(q);
        const ShoupMul s(w, q);
        for (int j = 0; j < 8; ++j) {
            // Any 64-bit x is valid — including the [0, 4q) butterfly
            // domain and the full word range.
            const u64 x = rng.next();
            const u64 r = s.mul_lazy(x, q);
            EXPECT_LT(r, 2 * q);
            EXPECT_EQ(r % q, mul_mod(x % q, w, q));
            // The full product is the lazy one after one correction.
            EXPECT_EQ(s.mul(x, q), r >= q ? r - q : r);
        }
    }
}

TEST(ModArith, ShoupFromReducedMatchesConstructor)
{
    Xoshiro256 rng(8);
    const u64 q = (1ULL << 55) + 1237;
    for (int i = 0; i < 200; ++i) {
        const u64 w = rng.uniform(q);
        const ShoupMul a(w, q);
        const ShoupMul b = ShoupMul::from_reduced(w, q);
        EXPECT_EQ(a.w, b.w);
        EXPECT_EQ(a.w_shoup, b.w_shoup);
    }
}

TEST(ModArith, ShoupReducesUnreducedOperand)
{
    // Regression: the constructor documents w as "reduced mod m" but
    // used to store the raw operand, silently producing a wrong
    // w_shoup (and wrong products) for operand >= modulus.
    Xoshiro256 rng(5);
    const u64 q = (1ULL << 50) + 4867;
    for (int i = 0; i < 100; ++i) {
        const u64 w = rng.uniform(q);
        const u64 unreduced = w + q * (1 + rng.uniform(1000));
        const ShoupMul raw(unreduced, q);
        const ShoupMul reduced(w, q);
        EXPECT_EQ(raw.w, w);
        EXPECT_EQ(raw.w_shoup, reduced.w_shoup);
        for (int j = 0; j < 4; ++j) {
            const u64 x = rng.uniform(q);
            EXPECT_EQ(raw.mul(x, q), mul_mod(x, w, q));
        }
    }
    // Exact multiple of the modulus reduces to zero.
    const ShoupMul zero(3 * q, q);
    EXPECT_EQ(zero.w, 0u);
    EXPECT_EQ(zero.mul(12345, q), 0u);
}

} // namespace
} // namespace bts
