#include "rns/rns_poly.h"

#include <gtest/gtest.h>

#include <memory>

#include "ckks/ckks_context.h"
#include "common/random.h"
#include "common/thread_guard.h"
#include "math/mod_arith.h"
#include "math/prime_gen.h"

namespace bts {
namespace {

class RnsPolyTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        primes_ = generate_ntt_primes(40, 2 * n_, 3);
        for (u64 p : primes_) {
            tables_store_.push_back(std::make_unique<NttTables>(n_, p));
            tables_.push_back(tables_store_.back().get());
        }
    }

    RnsPoly
    random_poly(Domain domain, u64 seed)
    {
        Sampler s(seed);
        RnsPoly poly(n_, primes_, domain);
        for (std::size_t i = 0; i < primes_.size(); ++i) {
            poly.component(i).copy_from(s.uniform_poly(n_, primes_[i]));
        }
        return poly;
    }

    const std::size_t n_ = 64;
    std::vector<u64> primes_;
    std::vector<std::unique_ptr<NttTables>> tables_store_;
    std::vector<const NttTables*> tables_;
};

TEST_F(RnsPolyTest, ToNttLazyCanonicalizesToToNtt)
{
    auto canonical = random_poly(Domain::kCoeff, 40);
    auto lazy = canonical;
    canonical.to_ntt(tables_);
    lazy.to_ntt_lazy(tables_);
    EXPECT_EQ(lazy.domain(), Domain::kNtt);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const u64 q = primes_[i];
        for (std::size_t c = 0; c < n_; ++c) {
            const u64 v = lazy.component(i)[c];
            ASSERT_LT(v, 2 * q);
            ASSERT_EQ(v >= q ? v - q : v, canonical.component(i)[c]);
        }
    }
}

TEST_F(RnsPolyTest, MulInplaceToleratesLazyOperands)
{
    auto a = random_poly(Domain::kCoeff, 41);
    const auto b = random_poly(Domain::kCoeff, 42);

    auto a_canon = a, b_canon = b;
    a_canon.to_ntt(tables_);
    b_canon.to_ntt(tables_);
    auto expect = a_canon;
    expect.mul_inplace(b_canon);

    auto a_lazy = a, b_lazy = b;
    a_lazy.to_ntt_lazy(tables_);
    b_lazy.to_ntt_lazy(tables_);
    a_lazy.mul_inplace(b_lazy); // both operands in [0, 2q)
    EXPECT_TRUE(a_lazy.equals(expect)); // output canonical either way
}

TEST_F(RnsPolyTest, SubMulScalarFusedMatchesSeparateOps)
{
    auto acc1 = random_poly(Domain::kCoeff, 45);
    const auto src = random_poly(Domain::kCoeff, 46);
    acc1.to_ntt(tables_);
    auto acc2 = acc1;
    auto acc3 = acc1;
    std::vector<u64> scalars;
    for (u64 q : primes_) scalars.push_back(q / 3 + 7);

    auto src_canon = src;
    src_canon.to_ntt(tables_);
    acc1.sub_inplace(src_canon);
    acc1.mul_scalar_inplace(scalars);

    acc2.sub_mul_scalar_inplace(src_canon, scalars);
    EXPECT_TRUE(acc2.equals(acc1));

    auto src_lazy = src;
    src_lazy.to_ntt_lazy(tables_);
    acc3.sub_mul_scalar_inplace(src_lazy, scalars,
                                RnsPoly::Residues::kLazy2q);
    EXPECT_TRUE(acc3.equals(acc1));
}

TEST_F(RnsPolyTest, AddMulScalarFusedMatchesSeparateOps)
{
    // this += other * s must equal a copy of other scaled by
    // mul_scalar_inplace, then add_inplace, bit for bit: with other over
    // more primes than this (its first rows read in place), with
    // negative constants mapped by signed_to_mod, and on 1 and 4 lanes.
    // 2^13 coefficients over 2 limbs split into coefficient tiles at 4.
    testing::ThreadGuard guard;
    const std::size_t n = std::size_t{1} << 13;
    Sampler s(47);
    RnsPoly other(n, primes_, Domain::kNtt);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        other.component(i).copy_from(s.uniform_poly(n, primes_[i]));
    }
    RnsPoly acc = other;
    acc.truncate(2);
    for (std::size_t i = 0; i < acc.num_primes(); ++i) {
        acc.component(i).copy_from(s.uniform_poly(n, primes_[i]));
    }

    for (const i64 c : {i64{3}, i64{-5}, i64{1} << 61, -(i64{1} << 61)}) {
        std::vector<u64> scalars;
        for (u64 q : primes_) scalars.push_back(signed_to_mod(c, q));
        RnsPoly term = other;
        term.mul_scalar_inplace(scalars);
        RnsPoly expect = acc;
        expect.add_inplace(term);
        for (int threads : {1, 4}) {
            set_num_threads(threads);
            RnsPoly got = acc;
            got.add_mul_scalar_inplace(other, scalars);
            EXPECT_TRUE(got.equals(expect))
                << "c=" << c << " threads=" << threads;
        }
    }
}

TEST_F(RnsPolyTest, AddSubInverse)
{
    auto a = random_poly(Domain::kCoeff, 1);
    const auto b = random_poly(Domain::kCoeff, 2);
    const auto orig = a;
    a.add_inplace(b);
    a.sub_inplace(b);
    EXPECT_TRUE(a.equals(orig));
}

TEST_F(RnsPolyTest, NegateTwiceIsIdentity)
{
    auto a = random_poly(Domain::kCoeff, 3);
    const auto orig = a;
    a.negate_inplace();
    EXPECT_FALSE(a.equals(orig));
    a.negate_inplace();
    EXPECT_TRUE(a.equals(orig));
}

TEST_F(RnsPolyTest, NttRoundTrip)
{
    auto a = random_poly(Domain::kCoeff, 4);
    const auto orig = a;
    a.to_ntt(tables_);
    EXPECT_EQ(a.domain(), Domain::kNtt);
    a.to_coeff(tables_);
    EXPECT_TRUE(a.equals(orig));
}

TEST_F(RnsPolyTest, MulRequiresNttDomain)
{
    auto a = random_poly(Domain::kCoeff, 5);
    const auto b = random_poly(Domain::kCoeff, 6);
    EXPECT_THROW(a.mul_inplace(b), std::invalid_argument);
}

TEST_F(RnsPolyTest, MulMatchesPerComponentReference)
{
    auto a = random_poly(Domain::kCoeff, 7);
    auto b = random_poly(Domain::kCoeff, 8);
    std::vector<std::vector<u64>> expected;
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        expected.push_back(negacyclic_mul_reference(
            a.component(i).to_vector(), b.component(i).to_vector(),
            primes_[i]));
    }
    a.to_ntt(tables_);
    b.to_ntt(tables_);
    a.mul_inplace(b);
    a.to_coeff(tables_);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        EXPECT_EQ(a.component(i), expected[i]);
    }
}

TEST_F(RnsPolyTest, ScalarMul)
{
    auto a = random_poly(Domain::kCoeff, 9);
    const auto orig = a;
    std::vector<u64> scalars = {3, 3, 3};
    a.mul_scalar_inplace(scalars);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        for (std::size_t c = 0; c < n_; ++c) {
            EXPECT_EQ(a.component(i)[c],
                      mul_mod(orig.component(i)[c], 3, primes_[i]));
        }
    }
}

TEST_F(RnsPolyTest, TruncateAndPush)
{
    auto a = random_poly(Domain::kCoeff, 10);
    const std::vector<u64> comp2 = a.component(2).to_vector();
    a.truncate(2);
    EXPECT_EQ(a.num_primes(), 2u);
    a.push_component(primes_[2], comp2);
    EXPECT_EQ(a.num_primes(), 3u);
    EXPECT_EQ(a.component(2), comp2);
    a.pop_component();
    EXPECT_EQ(a.num_primes(), 2u);
}

TEST_F(RnsPolyTest, FlatStorageIsLimbMajorContiguous)
{
    const auto a = random_poly(Domain::kCoeff, 21);
    const u64* base = a.data();
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        EXPECT_EQ(a.component(i).data(), base + i * n_);
        EXPECT_EQ(a.component(i).size(), n_);
    }
}

TEST_F(RnsPolyTest, TruncateKeepsSurvivingRowsInPlace)
{
    auto a = random_poly(Domain::kCoeff, 22);
    const std::vector<u64> row0 = a.component(0).to_vector();
    const std::vector<u64> row1 = a.component(1).to_vector();
    const u64* base = a.data();
    a.truncate(2);
    // Shrinking must not move the flat buffer or disturb survivors.
    EXPECT_EQ(a.data(), base);
    EXPECT_EQ(a.component(0), row0);
    EXPECT_EQ(a.component(1), row1);
}

TEST_F(RnsPolyTest, PushComponentAppendsContiguously)
{
    auto a = random_poly(Domain::kCoeff, 23);
    Sampler s(24);
    const std::vector<u64> extra = s.uniform_poly(n_, primes_[2]);
    a.truncate(2);
    a.push_component(primes_[2], extra);
    EXPECT_EQ(a.num_primes(), 3u);
    EXPECT_EQ(a.component(2), extra);
    // Contiguity must hold across the grow.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(a.component(i).data(), a.data() + i * n_);
    }
    EXPECT_THROW(a.push_component(primes_[0], std::vector<u64>(n_ / 2)),
                 std::invalid_argument);
}

TEST_F(RnsPolyTest, PopComponentDropsExactlyTheLastRow)
{
    auto a = random_poly(Domain::kCoeff, 25);
    const std::vector<u64> row0 = a.component(0).to_vector();
    const std::vector<u64> row1 = a.component(1).to_vector();
    a.pop_component();
    EXPECT_EQ(a.num_primes(), 2u);
    EXPECT_EQ(a.primes(), std::vector<u64>(primes_.begin(),
                                           primes_.begin() + 2));
    EXPECT_EQ(a.component(0), row0);
    EXPECT_EQ(a.component(1), row1);
    a.pop_component();
    a.pop_component();
    EXPECT_THROW(a.pop_component(), std::invalid_argument);
}

TEST_F(RnsPolyTest, CopyAndMoveKeepResidues)
{
    const auto a = random_poly(Domain::kNtt, 26);
    RnsPoly copy = a;
    EXPECT_TRUE(copy.equals(a));
    EXPECT_NE(copy.data(), a.data()); // deep copy of the flat buffer

    RnsPoly moved = std::move(copy);
    EXPECT_TRUE(moved.equals(a));

    RnsPoly assigned;
    assigned = a;
    EXPECT_TRUE(assigned.equals(a));
    assigned = random_poly(Domain::kCoeff, 27); // reassign over live data
    EXPECT_FALSE(assigned.equals(a));
}

TEST_F(RnsPolyTest, OperandPrefixCompatibility)
{
    // A smaller-level poly may consume a larger one (prefix rule).
    auto a = random_poly(Domain::kCoeff, 11);
    auto b = random_poly(Domain::kCoeff, 12);
    a.truncate(2);
    EXPECT_NO_THROW(a.add_inplace(b));
    // But not the other way around.
    EXPECT_THROW(b.add_inplace(a), std::invalid_argument);
}

TEST_F(RnsPolyTest, AutomorphismIdentity)
{
    const auto a = random_poly(Domain::kCoeff, 13);
    // galois exponent 1 is the identity.
    EXPECT_TRUE(a.automorphism(1).equals(a));
}

TEST_F(RnsPolyTest, AutomorphismComposition)
{
    // sigma_a(sigma_b(x)) == sigma_{a*b mod 2N}(x).
    const auto a = random_poly(Domain::kCoeff, 14);
    const u64 two_n = 2 * n_;
    const u64 e1 = 5, e2 = 25;
    const auto lhs = a.automorphism(e1).automorphism(e2);
    const auto rhs = a.automorphism((e1 * e2) % two_n);
    EXPECT_TRUE(lhs.equals(rhs));
}

TEST_F(RnsPolyTest, AutomorphismOnMonomial)
{
    // X -> X^k maps the monomial X^j to +-X^{jk mod N}.
    RnsPoly a(n_, primes_, Domain::kCoeff);
    for (std::size_t i = 0; i < primes_.size(); ++i) a.component(i)[3] = 1;
    const u64 k = 5;
    const auto out = a.automorphism(k);
    const u64 target = (3 * k) % (2 * n_); // 15 < n: positive
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        for (std::size_t c = 0; c < n_; ++c) {
            EXPECT_EQ(out.component(i)[c], c == target ? 1u : 0u);
        }
    }
}

TEST_F(RnsPolyTest, AutomorphismWrapsWithSign)
{
    // Choose j*k past N so the negacyclic sign flip triggers.
    RnsPoly a(n_, primes_, Domain::kCoeff);
    const std::size_t j = 20;
    for (std::size_t i = 0; i < primes_.size(); ++i) a.component(i)[j] = 1;
    const u64 k = 5;
    const u64 jk = (j * k) % (2 * n_); // 100 >= 64 -> -X^{100-64}
    ASSERT_GE(jk, n_);
    const auto out = a.automorphism(k);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        EXPECT_EQ(out.component(i)[jk - n_], primes_[i] - 1);
    }
}

TEST_F(RnsPolyTest, AutomorphismPreservesRingMultiplication)
{
    // sigma(a * b) == sigma(a) * sigma(b): the property HRot relies on.
    auto a = random_poly(Domain::kCoeff, 15);
    auto b = random_poly(Domain::kCoeff, 16);
    const u64 exp = 13; // odd

    auto prod = a;
    prod.to_ntt(tables_);
    auto b_ntt = b;
    b_ntt.to_ntt(tables_);
    prod.mul_inplace(b_ntt);
    prod.to_coeff(tables_);
    const auto lhs = prod.automorphism(exp);

    auto sa = a.automorphism(exp);
    auto sb = b.automorphism(exp);
    sa.to_ntt(tables_);
    sb.to_ntt(tables_);
    sa.mul_inplace(sb);
    sa.to_coeff(tables_);
    EXPECT_TRUE(lhs.equals(sa));
}

TEST(RnsPolyNttAutomorphism, MatchesCoefficientReference)
{
    // The NTT-domain automorphism is an exact slot permutation: over
    // every q and p prime of a context, gathering through
    // ntt_galois_index equals the iNTT -> automorphism -> NTT round
    // trip, and a lazy [0, 2q) input stays lazy and congruent mod q.
    for (const std::size_t n : {1u << 8, 1u << 10, 1u << 11}) {
        CkksParams params;
        params.n = n;
        params.max_level = 4;
        const CkksContext ctx(params);
        const auto& primes = ctx.full_primes();
        const auto tables = ctx.tables_for(primes);

        Sampler s(n);
        RnsPoly x(n, primes, Domain::kNtt);
        for (std::size_t i = 0; i < primes.size(); ++i) {
            x.component(i).copy_from(s.uniform_poly(n, primes[i]));
        }
        // Same residues mod q, every odd slot lifted into [q, 2q).
        RnsPoly lazy = x;
        for (std::size_t i = 0; i < primes.size(); ++i) {
            for (std::size_t c = 1; c < n; c += 2) {
                lazy.component(i)[c] += primes[i];
            }
        }

        std::vector<u64> exps;
        for (const int r : {1, 2, 3, 17, static_cast<int>(n / 2) - 1, -1}) {
            exps.push_back(ctx.galois_exp_for_rotation(r));
        }
        exps.push_back(ctx.galois_exp_conjugation());
        for (const u64 g : exps) {
            RnsPoly expected = x;
            expected.to_coeff(tables);
            expected = expected.automorphism(g);
            expected.to_ntt(tables);

            const std::vector<u32> index = ntt_galois_index(n, g);
            EXPECT_TRUE(x.automorphism_ntt(index).equals(expected))
                << "N " << n << " exponent " << g;

            const RnsPoly got = lazy.automorphism_ntt(index);
            std::size_t bad = 0;
            for (std::size_t i = 0; i < primes.size(); ++i) {
                const u64 q = primes[i];
                for (std::size_t c = 0; c < n; ++c) {
                    const u64 v = got.component(i)[c];
                    bad += v >= 2 * q || v % q != expected.component(i)[c];
                }
            }
            EXPECT_EQ(bad, 0u) << "lazy input, N " << n << " exponent " << g;
        }
    }
}

} // namespace
} // namespace bts
