/**
 * @file
 * Shared CKKS test environment: a small CKKS instance (insecure, see
 * runtime::functional_params) with all key material, built once per
 * parameter set and cached across tests.
 */
#pragma once

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "ckks/bootstrapper.h"
#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "runtime/executor.h"
#include "runtime/graph_workloads.h"

namespace bts::testing {

struct TestEnv
{
    explicit TestEnv(const CkksParams& params)
        : ctx(params),
          encoder(ctx),
          evaluator(ctx, encoder),
          keygen(ctx, params.seed + 1),
          encryptor(ctx, params.seed + 2),
          decryptor(ctx)
    {
        sk = keygen.gen_secret_key();
        pk = keygen.gen_public_key(sk);
        mult_key = keygen.gen_mult_key(sk);
        conj_key = keygen.gen_conjugation_key(sk);
    }

    std::vector<Complex>
    random_message(std::size_t slots, double magnitude, u64 seed) const
    {
        Xoshiro256 rng(seed);
        std::vector<Complex> z(slots);
        for (auto& v : z) {
            v = Complex(magnitude * (2 * rng.uniform_real() - 1),
                        magnitude * (2 * rng.uniform_real() - 1));
        }
        return z;
    }

    Ciphertext
    encrypt(const std::vector<Complex>& z, int level = -1)
    {
        if (level < 0) level = ctx.max_level();
        const Plaintext pt = encoder.encode(z, ctx.delta(), level);
        return encryptor.encrypt_symmetric(pt, sk);
    }

    std::vector<Complex>
    decrypt(const Ciphertext& ct) const
    {
        return encoder.decode(decryptor.decrypt(ct, sk));
    }

    /** What an Executor or GraphServer runs against: this env's keys,
     *  @p rot_keys, and @p boot when graphs refresh. */
    runtime::EvalResources
    resources(const RotationKeys& rot_keys,
              const Bootstrapper* boot = nullptr) const
    {
        return {.eval = &evaluator,
                .encoder = &encoder,
                .mult_key = &mult_key,
                .rot_keys = &rot_keys,
                .conj_key = &conj_key,
                .bootstrapper = boot};
    }

    static double
    max_err(const std::vector<Complex>& a, const std::vector<Complex>& b)
    {
        double worst = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            worst = std::max(worst, std::abs(a[i] - b[i]));
        }
        return worst;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    Evaluator evaluator;
    KeyGenerator keygen;
    Encryptor encryptor;
    Decryptor decryptor;
    SecretKey sk;
    PublicKey pk;
    EvalKey mult_key;
    EvalKey conj_key;
};

/** Default small test instance: N=2^10, L=6, dnum=2. */
inline CkksParams
small_params()
{
    CkksParams p;
    p.n = 1 << 10;
    p.max_level = 6;
    p.dnum = 2;
    p.q0_bits = 50;
    p.scale_bits = 40;
    p.special_bits = 50;
    p.hamming_weight = 32;
    p.seed = 2024;
    return p;
}

/** Ciphertext bit-equality — the pin the scheduler / concurrency
 *  suites compare runs with. */
inline bool
ct_equal(const Ciphertext& x, const Ciphertext& y)
{
    return x.level == y.level && x.scale == y.scale &&
           x.b.equals(y.b) && x.a.equals(y.a);
}

/**
 * The functional instance (runtime::functional_params and
 * functional_boot_config) with its bootstrapper and rotation keys.
 */
struct BootTestEnv
{
    /** @p max_level defaults to L=14 (refreshes to level 1); the
     *  application suites pass L=20 (refreshes to level 7).
     *
     *  Caveat for test authors: K = 12 covers gap = 2 at hamming
     *  weight 32 only *marginally* — a rare encryption draw puts one
     *  ModRaise coefficient outside [-K, K], EvalMod diverges on it,
     *  and SlotToCoeff smears the garbage across every slot. All
     *  randomness here is seeded, so a given (env seed, input seed,
     *  encrypt order) either always works or always fails: pin seeds
     *  that work, and re-check after reordering encrypt calls. */
    explicit BootTestEnv(u64 seed,
                         const std::vector<int>& extra_rotations = {},
                         int max_level = 14)
        : env(runtime::functional_params(max_level, seed))
    {
        boot = std::make_unique<Bootstrapper>(
            env.ctx, env.encoder, env.evaluator,
            runtime::functional_boot_config());
        auto amounts = boot->required_rotations();
        for (const int r : extra_rotations) amounts.push_back(r);
        rot_keys = env.keygen.gen_rotation_keys(env.sk, amounts);
        boot->set_keys(&env.mult_key, &rot_keys, &env.conj_key);
    }

    runtime::EvalResources
    resources() const
    {
        return env.resources(rot_keys, boot.get());
    }

    TestEnv env;
    std::unique_ptr<Bootstrapper> boot;
    RotationKeys rot_keys;
};

/** Cached environment keyed by a name (key generation is expensive). */
inline TestEnv&
cached_env(const std::string& name, const CkksParams& params)
{
    static std::map<std::string, std::unique_ptr<TestEnv>> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        it = cache.emplace(name, std::make_unique<TestEnv>(params)).first;
    }
    return *it->second;
}

inline TestEnv&
default_env()
{
    return cached_env("small", small_params());
}

} // namespace bts::testing
