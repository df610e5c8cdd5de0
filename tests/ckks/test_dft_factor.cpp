#include "ckks/dft_factor.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/bit_ops.h"
#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;
using testing::default_env;

std::vector<Complex>
matvec(const std::vector<std::vector<Complex>>& m,
       const std::vector<Complex>& v)
{
    std::vector<Complex> out(v.size(), Complex(0, 0));
    for (std::size_t j = 0; j < v.size(); ++j) {
        for (std::size_t k = 0; k < v.size(); ++k) out[j] += m[j][k] * v[k];
    }
    return out;
}

std::vector<Complex>
bitrev(std::vector<Complex> v)
{
    bit_reverse_permute(v.data(), v.size());
    return v;
}

std::vector<Complex>
apply_stages(const std::vector<DiagonalMap>& stages, std::vector<Complex> v)
{
    for (const auto& s : stages) v = apply_diagonals(s, v);
    return v;
}

/** (1/2n) A^dagger — the dense CoeffToSlot matrix. */
std::vector<std::vector<Complex>>
dense_cts_matrix(std::size_t n)
{
    const auto a = special_fourier_matrix(n);
    std::vector<std::vector<Complex>> m(n, std::vector<Complex>(n));
    const double scale = 1.0 / (2.0 * static_cast<double>(n));
    for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t k = 0; k < n; ++k) {
            m[t][k] = std::conj(a[k][t]) * scale;
        }
    }
    return m;
}

// ---------- clear-math factorization pins ----------

TEST(FactoredDft, StageProductMatchesSpecialFft)
{
    // SlotToCoeff factored stages compute A * P: applying them to x
    // must equal the encoder's special FFT on the bit-reversed input,
    // for every slot count and radix (including ragged log/radix).
    auto& env = default_env();
    for (std::size_t n : {8u, 64u, 256u}) {
        for (int radix : {2, 4, 8}) {
            const auto stages = FactoredDft::stage_diagonals(
                n, DftDirection::kSlotToCoeff, radix);
            const auto x = env.random_message(n, 1.0, 40 + n + radix);
            const auto got = apply_stages(stages, x);
            auto ref = bitrev(x);
            env.encoder.fft_special(ref);
            EXPECT_LT(TestEnv::max_err(ref, got), 1e-9)
                << "n=" << n << " radix=" << radix;
        }
    }
}

TEST(FactoredDft, CtsStagesMatchDenseDaggerBitReversed)
{
    // CoeffToSlot factored stages compute P * (1/2n) A^dagger: the
    // dense oracle's output in bit-reversed slot order.
    auto& env = default_env();
    for (std::size_t n : {8u, 64u}) {
        for (int radix : {2, 4}) {
            const auto stages = FactoredDft::stage_diagonals(
                n, DftDirection::kCoeffToSlot, radix);
            const auto x = env.random_message(n, 1.0, 80 + n + radix);
            const auto got = apply_stages(stages, x);
            const auto ref = bitrev(matvec(dense_cts_matrix(n), x));
            EXPECT_LT(TestEnv::max_err(ref, got), 1e-9)
                << "n=" << n << " radix=" << radix;
        }
    }
}

TEST(FactoredDft, StagesAreSparse)
{
    // Each radix-2^r stage has at most 2^{r+1}-1 diagonals; the whole
    // factorization is O(log n * radix) versus the dense n diagonals.
    for (int radix : {2, 4, 8}) {
        const auto stages = FactoredDft::stage_diagonals(
            512, DftDirection::kSlotToCoeff, radix);
        for (const auto& s : stages) {
            EXPECT_LE(static_cast<int>(s.size()), 2 * radix - 1);
        }
    }
}

// ---------- sparse-packing lifts (clear math) ----------

/** Every map a lift may meet at @p n slots: each radix stage of both
 *  directions, and the dense CtS and StC matrices. */
std::vector<DiagonalMap>
stage_maps(std::size_t n)
{
    std::vector<DiagonalMap> maps = {diagonals_of(dense_cts_matrix(n)),
                                     diagonals_of(special_fourier_matrix(n))};
    for (int radix : {2, 4, 8}) {
        for (DftDirection direction :
             {DftDirection::kCoeffToSlot, DftDirection::kSlotToCoeff}) {
            for (auto& m : FactoredDft::stage_diagonals(n, direction, radix)) {
                maps.push_back(std::move(m));
            }
        }
    }
    return maps;
}

std::vector<Complex>
concat(std::vector<Complex> lo, const std::vector<Complex>& hi)
{
    lo.insert(lo.end(), hi.begin(), hi.end());
    return lo;
}

std::vector<int>
shifts_of(const DiagonalMap& m)
{
    std::vector<int> shifts;
    for (const auto& [d, diag] : m) shifts.push_back(d);
    return shifts;
}

TEST(FactoredDft, CtsTailLiftSplitsRealAndImaginary)
{
    // On the 2n-slot view (s, s) of an n-slot input the CtS tail yields
    // (Ms, -i*Ms): adding its conjugate gives (2 Re Ms, 2 Im Ms).
    auto& env = default_env();
    for (std::size_t n : {8u, 64u}) {
        const auto s = env.random_message(n, 1.0, 300 + n);
        for (const DiagonalMap& m : stage_maps(n)) {
            const auto ms = apply_diagonals(m, s);
            std::vector<Complex> minus_i_ms;
            for (const Complex& c : ms) {
                minus_i_ms.push_back(Complex(0, -1) * c);
            }
            EXPECT_LT(TestEnv::max_err(
                          concat(ms, minus_i_ms),
                          apply_diagonals(lift_cts_tail(m), concat(s, s))),
                      1e-9)
                << "n=" << n;
        }
    }
}

TEST(FactoredDft, StcHeadLiftReadsTheHalfTurnedVector)
{
    // The StC head's shifts d read v = (a, b) and its shifts d + n read
    // shift d of the half-turned rot_n(v) = (b, a), on M's own shifts;
    // together they map real (a, b) to (M(a+ib), M(a+ib)).
    auto& env = default_env();
    for (std::size_t n : {8u, 64u}) {
        const auto z = env.random_message(n, 1.0, 400 + n);
        std::vector<Complex> a(n), b(n), a_ib(n);
        for (std::size_t j = 0; j < n; ++j) {
            a[j] = z[j].real();
            b[j] = z[j].imag();
            a_ib[j] = z[j];
        }
        for (const DiagonalMap& m : stage_maps(n)) {
            DiagonalMap direct, turned;
            for (auto& [e, diag] : lift_stc_head(m)) {
                if (e < static_cast<int>(n)) {
                    direct.emplace(e, std::move(diag));
                } else {
                    turned.emplace(e - static_cast<int>(n), std::move(diag));
                }
            }
            EXPECT_EQ(shifts_of(direct), shifts_of(m));
            EXPECT_EQ(shifts_of(turned), shifts_of(m));

            auto got = apply_diagonals(direct, concat(a, b));
            const auto from_turned = apply_diagonals(turned, concat(b, a));
            for (std::size_t j = 0; j < 2 * n; ++j) got[j] += from_turned[j];
            const auto m_aib = apply_diagonals(m, a_ib);
            EXPECT_LT(TestEnv::max_err(concat(m_aib, m_aib), got), 1e-9)
                << "n=" << n;
        }
    }
}

// ---------- homomorphic equivalence against the dense oracle ----------

RotationKeys
keys_for_amounts(TestEnv& env, std::vector<int> a, std::vector<int> b)
{
    a.insert(a.end(), b.begin(), b.end());
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    return env.keygen.gen_rotation_keys(env.sk, a);
}

class FactoredVsDense
    : public ::testing::TestWithParam<std::pair<std::size_t, int>>
{};

TEST_P(FactoredVsDense, CtsDecryptsToDenseOracle)
{
    auto& env = default_env();
    const auto [slots, radix] = GetParam();
    const int level = env.ctx.max_level(); // 6

    const FactoredDft cts_f(env.ctx, env.encoder, slots,
                            DftDirection::kCoeffToSlot, radix, level);
    const LinearTransform cts_d(env.ctx, env.encoder,
                                dense_cts_matrix(slots), level);
    auto keys = keys_for_amounts(env, cts_f.required_rotations(),
                                 cts_d.required_rotations());

    const auto z = env.random_message(slots, 1.0, 90 + slots + radix);
    const Ciphertext ct = env.encrypt(z, level);
    const auto got = env.decrypt(cts_f.apply(env.evaluator, ct, keys));
    const auto dense = env.decrypt(cts_d.apply(env.evaluator, ct, keys));

    // Factored output is the dense oracle's, bit-reversed.
    EXPECT_LT(TestEnv::max_err(bitrev(dense), got), 1e-3);

    // The factored path never materializes the n x n matrix; its total
    // PMult count stays well under the dense n diagonals.
    if (slots >= 64) {
        EXPECT_LT(cts_f.total_diagonals(), static_cast<int>(slots) / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RadixSlots, FactoredVsDense,
    ::testing::Values(std::make_pair(std::size_t{8}, 2),
                      std::make_pair(std::size_t{8}, 4),
                      std::make_pair(std::size_t{64}, 2),
                      std::make_pair(std::size_t{64}, 4)));

class FactoredRoundTrip
    : public ::testing::TestWithParam<std::pair<std::size_t, int>>
{};

TEST_P(FactoredRoundTrip, MatchesDenseRoundTrip)
{
    // CtS then StC: the two deferred bit-reversals cancel, so the
    // factored round trip must decrypt to the same message map as the
    // dense round trip, on the same input ciphertext.
    auto& env = default_env();
    const auto [slots, radix] = GetParam();
    const int level = env.ctx.max_level();
    const FactoredDft cts_f(env.ctx, env.encoder, slots,
                            DftDirection::kCoeffToSlot, radix, level);
    const FactoredDft stc_f(env.ctx, env.encoder, slots,
                            DftDirection::kSlotToCoeff, radix,
                            level - cts_f.num_stages());
    const LinearTransform cts_d(env.ctx, env.encoder,
                                dense_cts_matrix(slots), level);
    const LinearTransform stc_d(env.ctx, env.encoder,
                                special_fourier_matrix(slots), level - 1);

    auto keys = keys_for_amounts(env, cts_f.required_rotations(),
                                 stc_f.required_rotations());
    for (auto& [r, k] : keys_for_amounts(env, cts_d.required_rotations(),
                                         stc_d.required_rotations())) {
        keys.emplace(r, std::move(k));
    }

    const auto z = env.random_message(slots, 1.0, 120 + slots + radix);
    const Ciphertext ct = env.encrypt(z, level);
    const auto got = env.decrypt(stc_f.apply(
        env.evaluator, cts_f.apply(env.evaluator, ct, keys), keys));
    const auto dense = env.decrypt(stc_d.apply(
        env.evaluator, cts_d.apply(env.evaluator, ct, keys), keys));
    EXPECT_LT(TestEnv::max_err(dense, got), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    RadixSlots, FactoredRoundTrip,
    ::testing::Values(std::make_pair(std::size_t{8}, 2),
                      std::make_pair(std::size_t{8}, 4),
                      std::make_pair(std::size_t{64}, 4)));

// ---------- precision against the clear-math product ----------

TEST(FactoredDft, StagesMatchClearMathAtFunctionalInstance)
{
    // Every CtS and StC stage of functional_boot_config() at L=20, at
    // the levels the bootstrap compiles them for, and a dense 64 x 64
    // matrix at L=20, each applied to fresh encryptions and compared
    // with its diagonals' clear-math product. A double-hoisted
    // transform rounds at one ModDown per polynomial (plus one per
    // giant-step mask) where single hoisting rounded per baby step, so
    // this pins the error against the plaintext, not a digest. Worst
    // error over these draws, both on the StC head (outputs near 10):
    // 1.5e-8 single hoisted, 3.8e-9 double hoisted. Every case's
    // worst fell, by 4x to 20x. The bound is twice the single-hoisted
    // worst.
    TestEnv env(runtime::functional_params(20, 7));
    const BootstrapConfig cfg = runtime::functional_boot_config();
    const Bootstrapper boot(env.ctx, env.encoder, env.evaluator, cfg);
    const FactoredDft cts(env.ctx, env.encoder, cfg.slots,
                          DftDirection::kCoeffToSlot, cfg.cts_radix,
                          env.ctx.max_level(), /*packed=*/true);
    const FactoredDft stc(env.ctx, env.encoder, cfg.slots,
                          DftDirection::kSlotToCoeff, cfg.stc_radix,
                          boot.stc_input_level(), /*packed=*/true);
    auto cts_maps = FactoredDft::stage_diagonals(
        cfg.slots, DftDirection::kCoeffToSlot, cfg.cts_radix);
    cts_maps.back() = lift_cts_tail(cts_maps.back());
    auto stc_maps = FactoredDft::stage_diagonals(
        cfg.slots, DftDirection::kSlotToCoeff, cfg.stc_radix);
    stc_maps.front() = lift_stc_head(stc_maps.front());

    const std::size_t n = 64;
    Xoshiro256 rng(1606);
    std::vector<std::vector<Complex>> matrix(n, std::vector<Complex>(n));
    for (auto& row : matrix) {
        for (Complex& v : row) {
            v = Complex(2 * rng.uniform_real() - 1,
                        2 * rng.uniform_real() - 1);
        }
    }
    const LinearTransform dense(env.ctx, env.encoder, matrix,
                                env.ctx.max_level());

    std::vector<std::pair<const LinearTransform*, DiagonalMap>> cases;
    for (int s = 0; s < cts.num_stages(); ++s) {
        cases.emplace_back(&cts.stage(s), cts_maps[s]);
    }
    for (int s = 0; s < stc.num_stages(); ++s) {
        cases.emplace_back(&stc.stage(s), stc_maps[s]);
    }
    cases.emplace_back(&dense, diagonals_of(matrix));
    ASSERT_EQ(cases.size(), 5u);

    std::vector<int> amounts = boot.required_rotations();
    for (const int r : dense.required_rotations()) amounts.push_back(r);
    std::sort(amounts.begin(), amounts.end());
    amounts.erase(std::unique(amounts.begin(), amounts.end()),
                  amounts.end());
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, amounts);

    for (std::size_t k = 0; k < cases.size(); ++k) {
        const auto& [lt, map] = cases[k];
        for (u64 draw = 0; draw < 4; ++draw) {
            const auto z =
                env.random_message(lt->dimension(), 1.0, 1700 + 8 * k + draw);
            const Ciphertext out = lt->apply(
                env.evaluator, env.encrypt(z, lt->level()), keys);
            EXPECT_EQ(out.level, lt->level() - 1);
            EXPECT_LT(TestEnv::max_err(apply_diagonals(map, z),
                                       env.decrypt(out)),
                      3e-8)
                << "case " << k << " (level " << lt->level() << "), draw "
                << draw;
        }
    }
}

// ---------- construction guards ----------

TEST(FactoredDft, RejectsBadRadix)
{
    auto& env = default_env();
    EXPECT_THROW(FactoredDft(env.ctx, env.encoder, 64,
                             DftDirection::kCoeffToSlot, 0, 6),
                 std::invalid_argument);
    EXPECT_THROW(FactoredDft(env.ctx, env.encoder, 64,
                             DftDirection::kCoeffToSlot, 3, 6),
                 std::invalid_argument);
}

TEST(FactoredDft, RejectsInsufficientLevelBudget)
{
    auto& env = default_env();
    // slots=64 at radix 2 needs 6 stages; input level 3 cannot fit.
    EXPECT_THROW(FactoredDft(env.ctx, env.encoder, 64,
                             DftDirection::kSlotToCoeff, 2, 3),
                 std::invalid_argument);
}

} // namespace
} // namespace bts
