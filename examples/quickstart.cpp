/**
 * @file
 * Quickstart: encrypt two real vectors, compute (x*y + x) homomorphically,
 * decrypt, and compare against the plaintext result.
 *
 * Uses a small parameter set (insecure — see runtime::functional_params
 * in runtime/graph_workloads.h) so it runs in well under a second; the
 * API is identical at production sizes.
 */
#include <cstdio>

#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"

int
main()
{
    using namespace bts;

    // 1. Parameters and context: N = 2^12, 8 levels, dnum = 2.
    CkksParams params;
    params.n = 1 << 12;
    params.max_level = 8;
    params.dnum = 2;
    const CkksContext ctx(params);
    printf("CKKS instance: N=%zu, L=%d, dnum=%d, Delta=2^%d\n", ctx.n(),
           ctx.max_level(), ctx.dnum(), params.scale_bits);

    // 2. Keys.
    KeyGenerator keygen(ctx, /*seed=*/42);
    const SecretKey sk = keygen.gen_secret_key();
    const PublicKey pk = keygen.gen_public_key(sk);
    const EvalKey mult_key = keygen.gen_mult_key(sk);

    // 3. Encode + encrypt two messages (1024 slots each).
    const CkksEncoder encoder(ctx);
    Encryptor encryptor(ctx, /*seed=*/7);
    std::vector<Complex> x(1024), y(1024);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = Complex(0.001 * static_cast<double>(i), 0);
        y[i] = Complex(1.0 - 0.0005 * static_cast<double>(i), 0);
    }
    const Ciphertext ct_x = encryptor.encrypt_public(
        encoder.encode(x, ctx.delta(), ctx.max_level()), pk);
    const Ciphertext ct_y = encryptor.encrypt_public(
        encoder.encode(y, ctx.delta(), ctx.max_level()), pk);

    // 4. Compute x*y + x under encryption.
    const Evaluator eval(ctx, encoder);
    Ciphertext prod = eval.mult(ct_x, ct_y, mult_key);
    eval.rescale_inplace(prod);
    Ciphertext xy_plus_x = eval.add(prod, ct_x);

    // 5. Decrypt and verify.
    const Decryptor decryptor(ctx);
    const auto result =
        encoder.decode(decryptor.decrypt(xy_plus_x, sk));
    double worst = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double expect = (x[i] * y[i] + x[i]).real();
        worst = std::max(worst, std::abs(result[i].real() - expect));
    }
    printf("slot[1]   = %.6f (expect %.6f)\n", result[1].real(),
           (x[1] * y[1] + x[1]).real());
    printf("slot[512] = %.6f (expect %.6f)\n", result[512].real(),
           (x[512] * y[512] + x[512]).real());
    printf("max error over 1024 slots: %.2e\n", worst);
    printf(worst < 1e-4 ? "OK\n" : "FAILED\n");
    return worst < 1e-4 ? 0 : 1;
}
