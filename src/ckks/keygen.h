/**
 * @file
 * Key generation for CKKS, including generalized (dnum) evaluation keys.
 */
#pragma once

#include <vector>

#include "ckks/ckks_context.h"
#include "ckks/keys.h"
#include "common/random.h"

namespace bts {

/** Generates secret, public and evaluation keys for one context. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext& ctx, u64 seed);

    /** Sample a fresh sparse-ternary secret key. */
    SecretKey gen_secret_key();

    /** Public encryption key for @p sk. */
    PublicKey gen_public_key(const SecretKey& sk);

    /** Relinearization key (switches s^2 -> s), used by HMult (Eq. 4). */
    EvalKey gen_mult_key(const SecretKey& sk);

    /**
     * Rotation key for rotation amount @p r (switches s(X^{5^r}) -> s),
     * used by HRot (Eq. 6). Negative r rotates right.
     */
    EvalKey gen_rotation_key(const SecretKey& sk, int r);

    /** Conjugation key (switches s(X^{2N-1}) -> s). */
    EvalKey gen_conjugation_key(const SecretKey& sk);

    /** Batch rotation keys for a set of amounts. */
    RotationKeys gen_rotation_keys(const SecretKey& sk,
                                   const std::vector<int>& amounts);

    /**
     * Re-keying key: switches ciphertexts under @p sk_from to be
     * decryptable under @p sk_to (proxy re-encryption; the same
     * key-switching engine as HMult/HRot with s_src = s_from).
     */
    EvalKey gen_rekey_key(const SecretKey& sk_from, const SecretKey& sk_to);

  private:
    /**
     * Generalized key-switching key from source secret @p s_src to the
     * secret @p sk: slice j carries -a_j*s + e_j + [P]*g_j*s_src with the
     * gadget g_j == 1 on slice-j primes and 0 elsewhere (Eq. 7).
     */
    EvalKey gen_switching_key(const SecretKey& sk, const RnsPoly& s_src_ntt,
                              u64 galois_exp);

    /** Switching key from s(X^galois_exp) to s; the source secret is a
     *  slot permutation of s_ntt. */
    EvalKey gen_galois_key(const SecretKey& sk, u64 galois_exp);

    const CkksContext& ctx_;
    Sampler sampler_;
};

} // namespace bts
