#include "crypto.h"

#include <algorithm>

namespace perfbench {

using namespace bts;

CkksParams
ckks_params(std::size_t n, u64 seed)
{
    CkksParams p;
    p.n = n;
    p.max_level = 20;
    p.dnum = 3;
    p.q0_bits = 50;
    p.scale_bits = 40;
    p.special_bits = 50;
    p.hamming_weight = 32;
    p.seed = seed;
    return p;
}

Crypto::Crypto(const CkksParams& params, u64 seed, const BootstrapConfig& cfg,
               std::vector<int> extra_rotations)
    : ctx(params),
      encoder(ctx),
      evaluator(ctx, encoder),
      keygen(ctx, seed * 4 + 1),
      encryptor(ctx, seed * 4 + 2),
      decryptor(ctx)
{
    sk = keygen.gen_secret_key();
    mult_key = keygen.gen_mult_key(sk);
    conj_key = keygen.gen_conjugation_key(sk);
    boot = std::make_unique<Bootstrapper>(ctx, encoder, evaluator, cfg);
    std::vector<int> amounts = std::move(extra_rotations);
    for (const int r : boot->required_rotations()) amounts.push_back(r);
    std::sort(amounts.begin(), amounts.end());
    amounts.erase(std::unique(amounts.begin(), amounts.end()), amounts.end());
    rot_keys = keygen.gen_rotation_keys(sk, amounts);
    boot->set_keys(&mult_key, &rot_keys, &conj_key);
}

runtime::EvalResources
Crypto::resources() const
{
    runtime::EvalResources res;
    res.eval = &evaluator;
    res.encoder = &encoder;
    res.mult_key = &mult_key;
    res.rot_keys = &rot_keys;
    res.conj_key = &conj_key;
    res.bootstrapper = boot.get();
    return res;
}

double
Crypto::evk_mb() const
{
    std::size_t bytes = 0;
    const auto add = [&](const EvalKey& k) {
        for (const auto& [x, y] : k.slices) {
            bytes += (x.num_primes() * x.degree() +
                      y.num_primes() * y.degree()) *
                     sizeof(u64);
        }
    };
    add(mult_key);
    add(conj_key);
    for (const auto& [amount, key] : rot_keys) add(key);
    return static_cast<double>(bytes) / 1e6;
}

} // namespace perfbench
