#include "ckks/bootstrapper.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "runtime/telemetry/trace.h"
#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;

/** Bootstrap-capable (still insecure/small) instance: N=2^11, L=14. */
CkksParams
boot_params()
{
    CkksParams p;
    p.n = 1 << 11;
    p.max_level = 14;
    p.dnum = 3;
    p.q0_bits = 50;
    p.scale_bits = 40;
    p.special_bits = 50;
    p.hamming_weight = 32;
    p.seed = 777;
    return p;
}

struct BootEnv
{
    BootEnv() : env(boot_params())
    {
        // Factored CtS/StC (the paper's assumed radix decomposition):
        // radix 32 splits the 512-slot DFT into 2 stages per direction,
        // fitting L=14 alongside the degree-119 EvalMod (8 levels):
        // 14 - 2 (CtS) - 8 (EvalMod) - 2 (StC) - 1 (normalize) = 1.
        BootstrapConfig cfg;
        cfg.slots = 512; // gap = 2
        cfg.k_range = 12.0;
        cfg.sine_degree = 119;
        cfg.cts_radix = 32;
        cfg.stc_radix = 32;
        boot = std::make_unique<Bootstrapper>(env.ctx, env.encoder,
                                              env.evaluator, cfg);
        rot_keys =
            env.keygen.gen_rotation_keys(env.sk, boot->required_rotations());
        boot->set_keys(&env.mult_key, &rot_keys, &env.conj_key);

        // A second bootstrapper on the same context/keys: sparse slot
        // count under the factored path (radix 16 -> 2 stages as well).
        // SubSum sums gap copies of the ModRaise integer part, so the
        // EvalMod range K must grow ~linearly with gap (|u| reaches 16
        // at gap = 4) and the sine degree with K (> e*pi*K for the
        // Chebyshev series to converge on [-K, K]).
        BootstrapConfig sparse_cfg = cfg;
        sparse_cfg.slots = 256; // gap = 4
        sparse_cfg.k_range = 24.0;
        sparse_cfg.sine_degree = 239;
        sparse_cfg.cts_radix = 16;
        sparse_cfg.stc_radix = 16;
        sparse_cfg.normalize_output_scale = false; // spend the last level
        sparse = std::make_unique<Bootstrapper>(env.ctx, env.encoder,
                                                env.evaluator, sparse_cfg);
        sparse_rot_keys = env.keygen.gen_rotation_keys(
            env.sk, sparse->required_rotations());
        sparse->set_keys(&env.mult_key, &sparse_rot_keys, &env.conj_key);
    }

    TestEnv env;
    std::unique_ptr<Bootstrapper> boot;
    RotationKeys rot_keys;
    std::unique_ptr<Bootstrapper> sparse;
    RotationKeys sparse_rot_keys;
};

BootEnv&
boot_env()
{
    static BootEnv* instance = new BootEnv();
    return *instance;
}

TEST(Bootstrap, RequiredRotationsIncludeSubSum)
{
    auto& be = boot_env();
    const auto rots = be.boot->required_rotations();
    // SubSum needs the single amount 512 (gap = 2).
    EXPECT_NE(std::find(rots.begin(), rots.end(), 512), rots.end());
    // BSGS rotations stay below the slot count.
    for (int r : rots) {
        EXPECT_GT(r, 0);
        EXPECT_LT(r, 1 << 10);
    }
}

TEST(Bootstrap, RequiredRotationsExactFromConstruction)
{
    // Regression: StC used to compile lazily inside const bootstrap()
    // (a data race for concurrent bootstraps) and required_rotations()
    // under-reported until the first call. Both transforms now compile
    // in the constructor, so the set must be identical before and
    // after bootstrapping.
    auto& be = boot_env();
    auto& env = be.env;
    const auto before = be.boot->required_rotations();
    const auto z = env.random_message(512, 0.3, 200);
    Ciphertext ct = env.encrypt(z, 0);
    (void)be.boot->bootstrap(ct);
    const auto after = be.boot->required_rotations();
    EXPECT_EQ(before, after);
}

TEST(Bootstrap, StageRaiseAndSubsum)
{
    auto& be = boot_env();
    auto& env = be.env;
    const auto z = env.random_message(512, 0.3, 201);
    Ciphertext ct = env.encrypt(z, 0);
    const Ciphertext raised = be.boot->stage_raise_and_subsum(ct);
    EXPECT_EQ(raised.level, env.ctx.max_level());
    EXPECT_DOUBLE_EQ(raised.scale,
                     static_cast<double>(env.ctx.q_primes()[0]));
}

TEST(Bootstrap, EndToEndMessageRefresh)
{
    auto& be = boot_env();
    auto& env = be.env;
    const auto z = env.random_message(512, 0.3, 202);

    Ciphertext ct = env.encrypt(z, 0); // exhausted ciphertext
    ASSERT_EQ(ct.level, 0);

    const Ciphertext fresh = be.boot->bootstrap(ct);
    EXPECT_GE(fresh.level, 1) << "bootstrapping must restore levels";
    const auto back = env.decrypt(fresh);
    const double err = TestEnv::max_err(z, back);
    EXPECT_LT(err, 1e-2) << "bootstrap precision too low";
}

TEST(Bootstrap, SparseSlotsEndToEndFactored)
{
    // The sparse-packing path (gap = 4) through the factored CtS/StC.
    auto& be = boot_env();
    auto& env = be.env;
    const auto z = env.random_message(256, 0.3, 206);
    Ciphertext ct = env.encrypt(z, 0);
    const Ciphertext fresh = be.sparse->bootstrap(ct);
    EXPECT_GE(fresh.level, 1);
    EXPECT_LT(TestEnv::max_err(z, env.decrypt(fresh)), 1e-2);
}

TEST(Bootstrap, RefreshedCiphertextIsUsable)
{
    // The real test of FHE: multiply after refresh.
    auto& be = boot_env();
    auto& env = be.env;
    const auto z = env.random_message(512, 0.3, 203);
    Ciphertext ct = env.encrypt(z, 0);
    Ciphertext fresh = be.boot->bootstrap(ct);
    ASSERT_GE(fresh.level, 1);

    Ciphertext sq = env.evaluator.square(fresh, env.mult_key);
    env.evaluator.rescale_inplace(sq);
    const auto got = env.decrypt(sq);
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = z[i] * z[i];
    EXPECT_LT(TestEnv::max_err(expected, got), 2e-2);
}

TEST(Bootstrap, RejectsWrongSlotCount)
{
    auto& be = boot_env();
    auto& env = be.env;
    const auto z = env.random_message(128, 0.3, 204);
    Ciphertext ct = env.encrypt(z, 0);
    EXPECT_THROW(be.boot->bootstrap(ct), std::invalid_argument);
}

TEST(Bootstrap, RejectsNonExhaustedInput)
{
    auto& be = boot_env();
    auto& env = be.env;
    const auto z = env.random_message(512, 0.3, 205);
    Ciphertext ct = env.encrypt(z, 3);
    EXPECT_THROW(be.boot->bootstrap(ct), std::invalid_argument);
}

/** The small ring (N=2^8, L=14) the dense oracle refreshes on. */
TestEnv&
dense_env()
{
    return testing::cached_env("boot-dense-small",
                               runtime::functional_params(14, 778));
}

/** The dense oracle's config (radix 0), gap = 2 on dense_env(). */
BootstrapConfig
dense_config()
{
    BootstrapConfig cfg;
    cfg.slots = 64;
    cfg.sine_degree = 119;
    return cfg;
}

TEST(Bootstrap, DenseOracleEndToEnd)
{
    // The radix-0 reference path must stay a working oracle (the
    // factored-vs-dense equivalence tests compare transforms against
    // it); keep one full dense refresh alive on a small ring.
    auto& env = dense_env();
    Bootstrapper boot(env.ctx, env.encoder, env.evaluator, dense_config());
    const RotationKeys rot_keys =
        env.keygen.gen_rotation_keys(env.sk, boot.required_rotations());
    boot.set_keys(&env.mult_key, &rot_keys, &env.conj_key);

    const auto z = env.random_message(64, 0.3, 207);
    Ciphertext ct = env.encrypt(z, 0);
    const Ciphertext fresh = boot.bootstrap(ct);
    EXPECT_GE(fresh.level, 1);
    EXPECT_LT(TestEnv::max_err(z, env.decrypt(fresh)), 1e-2);
}

TEST(Bootstrap, RejectsMixedDenseFactoredConfig)
{
    auto& be = boot_env();
    auto& env = be.env;
    BootstrapConfig cfg;
    cfg.slots = 64;
    cfg.cts_radix = 4;
    cfg.stc_radix = 0; // dense StC cannot undo the deferred bit-reversal
    EXPECT_THROW(
        Bootstrapper(env.ctx, env.encoder, env.evaluator, cfg),
        std::invalid_argument);

    // Regression: radix 1 used to reach a log2(1)=0 stage-count
    // division (SIGFPE) before any radix validation ran.
    cfg.stc_radix = 1;
    EXPECT_THROW(
        Bootstrapper(env.ctx, env.encoder, env.evaluator, cfg),
        std::invalid_argument);
    (void)be;
}

/** A fresh Bootstrapper for @p cfg on @p env: output_level(), read
 *  before its first bootstrap(), must be the level bootstrap returns. */
void
expect_output_level_known(TestEnv& env, const BootstrapConfig& cfg)
{
    Bootstrapper boot(env.ctx, env.encoder, env.evaluator, cfg);
    const int announced = boot.output_level();
    const RotationKeys rot_keys =
        env.keygen.gen_rotation_keys(env.sk, boot.required_rotations());
    boot.set_keys(&env.mult_key, &rot_keys, &env.conj_key);
    const auto z = env.random_message(cfg.slots, 0.3, 208);
    EXPECT_EQ(boot.bootstrap(env.encrypt(z, 0)).level, announced)
        << "L = " << env.ctx.max_level() << ", slots = " << cfg.slots
        << ", radix " << cfg.cts_radix;
}

TEST(Bootstrap, OutputLevelKnownAtConstruction)
{
    // Every config this suite bootstraps with, plus radix 2 at L=20:
    // 20 - 6 (CtS) - 8 (EvalMod) - 6 (StC) leaves level 0, so the
    // normalizing rescale is skipped.
    auto& be = boot_env();
    expect_output_level_known(be.env, be.boot->config());
    expect_output_level_known(be.env, be.sparse->config());
    expect_output_level_known(dense_env(), dense_config());
    testing::BootTestEnv l14(7321, {}, 14);
    expect_output_level_known(l14.env, l14.boot->config());
    testing::BootTestEnv l20(7321, {}, 20);
    expect_output_level_known(l20.env, l20.boot->config());

    BootstrapConfig radix2 = l20.boot->config();
    radix2.cts_radix = 2;
    radix2.stc_radix = 2;
    EXPECT_EQ(Bootstrapper(l20.env.ctx, l20.env.encoder, l20.env.evaluator,
                           radix2)
                  .output_level(),
              0);
    expect_output_level_known(l20.env, radix2);
}

/** Key-switch and rescale spans @p fn emits, with only the evaluator's
 *  telemetry category enabled. */
std::pair<int, int>
count_keyswitch_and_rescale(const std::function<void()>& fn)
{
    namespace tel = runtime::telemetry;
    tel::set_enabled(0);
    tel::reset_trace();
    tel::set_enabled(static_cast<u32>(tel::Category::kEvaluator));
    fn();
    tel::set_enabled(0);
    const tel::Trace trace = tel::collect_trace();
    tel::reset_trace();
    EXPECT_EQ(trace.total_dropped(), 0u);
    int keyswitch = 0, rescale = 0;
    for (const tel::ThreadTrace& th : trace.threads) {
        for (const tel::TraceEvent& ev : th.events) {
            keyswitch += std::strcmp(ev.name, "keyswitch") == 0;
            rescale += std::strcmp(ev.name, "rescale") == 0;
        }
    }
    return {keyswitch, rescale};
}

TEST(Bootstrap, EvalModKeySwitchAndRescaleCounts)
{
    // The degree-119 sine costs 14 power-basis products (T_10, T_12 and
    // T_14 are never read: the odd series has exact-zero even
    // coefficients) plus 7 Paterson-Stockmeyer products, and 30
    // rescales: the normalization, the 21 products and one per leaf
    // (8 leaves). Every bootstrap runs EvalMod twice.
#if !defined(BTS_TELEMETRY)
    GTEST_SKIP() << "built without BTS_TELEMETRY";
#endif
    testing::BootTestEnv be(31);
    auto& env = be.env;
    const Ciphertext ct = env.encrypt(env.random_message(64, 0.3, 32), 0);
    const Ciphertext raised = be.boot->stage_raise_and_subsum(ct);
    const auto [u_re, u_im] = be.boot->stage_coeff_to_slot(raised);

    Ciphertext v;
    EXPECT_EQ(count_keyswitch_and_rescale(
                  [&] { v = be.boot->stage_eval_mod(u_re); }),
              std::make_pair(21, 30));
    EXPECT_EQ(v.level, be.boot->stc_input_level());

    EXPECT_EQ(count_keyswitch_and_rescale(
                  [&] { (void)be.boot->bootstrap(ct); }),
              std::make_pair(52, 65));
}

TEST(Bootstrap, PrecisionHoldsAcrossDraws)
{
    // Refresh precision against the plaintext on the apps' instance
    // (N=2^8, L=20, slots 64, degree-119 sine): 12 seeded draws in
    // [-0.3, 0.3], each encrypted fresh, every refreshed slot compared
    // with its input. The worst draw's max slot error measures 3.26e-4
    // (draw 6; none garbles); the bound adds a ~20% margin.
    constexpr double kBound = 4e-4;
    testing::BootTestEnv be(7321, {}, 20);
    auto& env = be.env;
    for (u64 draw = 0; draw < 12; ++draw) {
        const auto z = env.random_message(64, 0.3, 500 + draw);
        const Ciphertext fresh = be.boot->bootstrap(env.encrypt(z, 0));
        EXPECT_LT(TestEnv::max_err(z, env.decrypt(fresh)), kBound)
            << "draw " << draw;
    }
}

TEST(Bootstrap, SineSeriesIsAccurate)
{
    auto& be = boot_env();
    const auto& series = be.boot->sine_series();
    EXPECT_LT(series.max_error([](double u) {
        return std::sin(2 * M_PI * u) / (2 * M_PI);
    }),
              1e-8);
}

} // namespace
} // namespace bts
