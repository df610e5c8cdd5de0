#include "ckks/keygen.h"

#include "common/check.h"
#include "math/mod_arith.h"

namespace bts {

KeyGenerator::KeyGenerator(const CkksContext& ctx, u64 seed)
    : ctx_(ctx), sampler_(seed)
{}

SecretKey
KeyGenerator::gen_secret_key()
{
    const auto& primes = ctx_.full_primes();
    const auto ternary =
        sampler_.sparse_ternary_poly(ctx_.n(), ctx_.params().hamming_weight);

    SecretKey sk;
    sk.hamming_weight = ctx_.params().hamming_weight;
    sk.s_coeff = RnsPoly(ctx_.n(), primes, Domain::kCoeff);
    for (std::size_t i = 0; i < primes.size(); ++i) {
        const Span comp = sk.s_coeff.component(i);
        for (std::size_t c = 0; c < ctx_.n(); ++c) {
            comp[c] = signed_to_mod(ternary[c], primes[i]);
        }
    }
    sk.s_ntt = sk.s_coeff;
    sk.s_ntt.to_ntt(ctx_.tables_for(primes));
    return sk;
}

namespace {

/** Sample a uniform polynomial directly in the NTT domain (uniform is
 *  invariant under the transform, so this is sound and cheaper). */
RnsPoly
uniform_ntt_poly(Sampler& sampler, std::size_t n,
                 const std::vector<u64>& primes)
{
    RnsPoly out(n, primes, Domain::kNtt);
    for (std::size_t i = 0; i < primes.size(); ++i) {
        out.component(i).copy_from(sampler.uniform_poly(n, primes[i]));
    }
    return out;
}

/** Sample a Gaussian error polynomial and move it to the NTT domain. */
RnsPoly
gaussian_ntt_poly(Sampler& sampler, const CkksContext& ctx,
                  const std::vector<u64>& primes)
{
    const auto err = sampler.gaussian_poly(ctx.n());
    RnsPoly out(ctx.n(), primes, Domain::kCoeff);
    for (std::size_t i = 0; i < primes.size(); ++i) {
        const Span comp = out.component(i);
        for (std::size_t c = 0; c < ctx.n(); ++c) {
            comp[c] = signed_to_mod(err[c], primes[i]);
        }
    }
    out.to_ntt(ctx.tables_for(primes));
    return out;
}

} // namespace

PublicKey
KeyGenerator::gen_public_key(const SecretKey& sk)
{
    // Public key lives at the top q-level (no special primes needed).
    const auto primes = ctx_.level_primes(ctx_.max_level());
    RnsPoly a = uniform_ntt_poly(sampler_, ctx_.n(), primes);
    RnsPoly e = gaussian_ntt_poly(sampler_, ctx_, primes);

    RnsPoly s = sk.s_ntt;
    s.truncate(primes.size());

    RnsPoly b = a;
    b.mul_inplace(s);
    b.negate_inplace();
    b.add_inplace(e);

    PublicKey pk;
    pk.b = std::move(b);
    pk.a = std::move(a);
    return pk;
}

EvalKey
KeyGenerator::gen_switching_key(const SecretKey& sk,
                                const RnsPoly& s_src_ntt, u64 galois_exp)
{
    const auto& primes = ctx_.full_primes();
    const int L = ctx_.max_level();
    const int k = ctx_.num_special();

    EvalKey evk;
    evk.galois_exp = galois_exp;
    evk.slices.reserve(ctx_.dnum());

    for (int j = 0; j < ctx_.dnum(); ++j) {
        RnsPoly a = uniform_ntt_poly(sampler_, ctx_.n(), primes);
        RnsPoly e = gaussian_ntt_poly(sampler_, ctx_, primes);

        RnsPoly b = a;
        b.mul_inplace(sk.s_ntt);
        b.negate_inplace();
        b.add_inplace(e);

        // Gadget term: [P]_{q_i} * s_src on slice-j primes, zero elsewhere
        // (and zero on the special primes since P == 0 mod p_t).
        const auto [begin, end] = ctx_.slice_range(j, L);
        for (int i = begin; i < end; ++i) {
            const u64 q = primes[i];
            const ShoupMul p_mod_q(ctx_.p_mod(q), q);
            const ConstSpan s_comp = s_src_ntt.component(i);
            const Span b_comp = b.component(i);
            for (std::size_t c = 0; c < ctx_.n(); ++c) {
                b_comp[c] = add_mod(b_comp[c], p_mod_q.mul(s_comp[c], q), q);
            }
        }
        (void)k;
        evk.slices.emplace_back(std::move(b), std::move(a));
    }
    return evk;
}

EvalKey
KeyGenerator::gen_mult_key(const SecretKey& sk)
{
    RnsPoly s2 = sk.s_ntt;
    s2.mul_inplace(sk.s_ntt);
    return gen_switching_key(sk, s2, 0);
}

EvalKey
KeyGenerator::gen_galois_key(const SecretKey& sk, u64 galois_exp)
{
    const RnsPoly s_src =
        sk.s_ntt.automorphism_ntt(ntt_galois_index(ctx_.n(), galois_exp));
    return gen_switching_key(sk, s_src, galois_exp);
}

EvalKey
KeyGenerator::gen_rotation_key(const SecretKey& sk, int r)
{
    return gen_galois_key(sk, ctx_.galois_exp_for_rotation(r));
}

EvalKey
KeyGenerator::gen_conjugation_key(const SecretKey& sk)
{
    return gen_galois_key(sk, ctx_.galois_exp_conjugation());
}

EvalKey
KeyGenerator::gen_rekey_key(const SecretKey& sk_from, const SecretKey& sk_to)
{
    return gen_switching_key(sk_to, sk_from.s_ntt, 0);
}

RotationKeys
KeyGenerator::gen_rotation_keys(const SecretKey& sk,
                                const std::vector<int>& amounts)
{
    RotationKeys keys;
    for (int r : amounts) {
        if (r == 0 || keys.count(r)) continue;
        keys.emplace(r, gen_rotation_key(sk, r));
    }
    return keys;
}

} // namespace bts
