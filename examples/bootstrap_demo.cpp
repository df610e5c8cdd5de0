/**
 * @file
 * Bootstrapping demo: exhaust a ciphertext's levels with real
 * multiplications, refresh it (ModRaise -> CoeffToSlot -> EvalMod ->
 * SlotToCoeff), then keep computing — the capability that makes FHE
 * "fully" homomorphic and the operation BTS accelerates.
 *
 * Runs a genuine (small, insecure-parameter) bootstrap at N = 2^11;
 * expect a few tenths of a second of CPU time for the refresh — the
 * point of the paper is that BTS does a full-size (N = 2^17) refresh
 * in ~10 ms.
 */
#include <chrono>
#include <cstdio>

#include "ckks/bootstrapper.h"
#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"

int
main()
{
    using namespace bts;
    using Clock = std::chrono::steady_clock;

    CkksParams params;
    params.n = 1 << 11;
    params.max_level = 14;
    params.dnum = 3;
    params.q0_bits = 50;
    params.hamming_weight = 32;
    const CkksContext ctx(params);
    const CkksEncoder encoder(ctx);
    const Evaluator eval(ctx, encoder);
    KeyGenerator keygen(ctx, 5);
    const SecretKey sk = keygen.gen_secret_key();
    const EvalKey mult_key = keygen.gen_mult_key(sk);
    const EvalKey conj_key = keygen.gen_conjugation_key(sk);
    Encryptor encryptor(ctx, 6);
    const Decryptor decryptor(ctx);

    BootstrapConfig cfg;
    cfg.slots = 512;
    // EvalMod's range: a degree-28 cosine series and 3 double angles
    // cover K = 12 (gap 2 at hamming weight 32).
    cfg.k_range = 12.0;
    // Factored CtS/StC (radix 32 -> 2 sparse stages per direction, ~5x
    // fewer diagonal PMults and >2x fewer key-switches than the dense
    // single-shot transform); set both to 0 for the dense oracle.
    cfg.cts_radix = 32;
    cfg.stc_radix = 32;
    printf("setting up bootstrapper (factored DFT stages + rotation "
           "keys)...\n");
    Bootstrapper boot(ctx, encoder, eval, cfg);
    printf("EvalMod: degree-%d cosine series + %d double angles; "
           "refreshes to level %d\n",
           Bootstrapper::kSeriesDegree, boot.double_angles(),
           boot.output_level());
    const RotationKeys rot_keys =
        keygen.gen_rotation_keys(sk, boot.required_rotations());
    boot.set_keys(&mult_key, &rot_keys, &conj_key);

    // Encrypt and burn all levels with real squarings of sqrt(x).
    std::vector<Complex> z(cfg.slots);
    Xoshiro256 rng(3);
    for (auto& v : z) v = Complex(0.25 + 0.5 * rng.uniform_real(), 0);
    Ciphertext ct = encryptor.encrypt_symmetric(
        encoder.encode(z, ctx.delta(), 1), sk);
    printf("level before work: %d\n", ct.level);
    Ciphertext sq = eval.square(ct, mult_key); // consume the last level
    eval.rescale_inplace(sq);
    printf("level after squaring: %d  (exhausted: no more HMult "
           "possible)\n",
           sq.level);

    const auto t0 = Clock::now();
    const Ciphertext fresh = boot.bootstrap(sq);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    printf("bootstrap done in %.2f s -> level %d\n", secs, fresh.level);

    // Prove the refreshed ciphertext is usable: square again.
    Ciphertext sq2 = eval.square(fresh, mult_key);
    eval.rescale_inplace(sq2);
    const auto got = encoder.decode(decryptor.decrypt(sq2, sk));
    double worst = 0;
    for (std::size_t i = 0; i < z.size(); ++i) {
        const double expect = std::pow(z[i].real(), 4.0);
        worst = std::max(worst, std::abs(got[i].real() - expect));
    }
    printf("computed x^4 across the bootstrap: max error %.2e\n", worst);
    printf(worst < 5e-2 ? "OK\n" : "FAILED\n");
    return worst < 5e-2 ? 0 : 1;
}
