/**
 * @file
 * Encrypted sorting, end to end: build the bitonic compare-exchange
 * network from runtime/apps/sort.h, execute it on real ciphertexts
 * (including every mid-circuit Bootstrap refresh the level budget
 * forces), and verify the decrypted result block-by-block against
 * std::sort.
 *
 * The inputs are drawn from the grid {-0.75, -0.25, 0.25, 0.75}: six
 * rounds of the sign kernel g(x) = 1.5x - 0.5x^3 saturate sign() to
 * +-1 within ~4e-4 on that spacing, so rounding the decrypted slots
 * back to the grid recovers the exact sorted order — the accuracy
 * methodology documented in docs/APPLICATIONS.md.
 *
 * Instance: the functional instance at L = 20
 * (runtime::functional_params and functional_boot_config: N = 2^8,
 * 64 slots, radix-8 CtS/StC, refreshing to level 7). Insecure, small,
 * and slow-ish — the point is the full circuit shape, not performance.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "ckks/bootstrapper.h"
#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "runtime/apps/sort.h"
#include "runtime/executor.h"
#include "runtime/graph_workloads.h"

int
main()
{
    using namespace bts;
    using namespace bts::runtime;

    // --- the functional instance ----------------------------------
    const CkksContext ctx(functional_params(20, 77));
    const CkksEncoder encoder(ctx);
    const Evaluator eval(ctx, encoder);
    KeyGenerator keygen(ctx, 78);
    Encryptor encryptor(ctx, 79);
    const Decryptor decryptor(ctx);
    const SecretKey sk = keygen.gen_secret_key();
    const EvalKey mult_key = keygen.gen_mult_key(sk);
    const EvalKey conj_key = keygen.gen_conjugation_key(sk);
    Bootstrapper boot(ctx, encoder, eval, functional_boot_config());

    // --- build the sorting graph ------------------------------------
    // The bootstrapper states the level it refreshes to, which the
    // graph metadata needs.
    const GraphTraits traits = traits_for(ctx, &boot);
    apps::SortConfig cfg = apps::SortConfig::functional(); // blocks of 4
    const apps::SortApp app = apps::build_sort(cfg, traits);
    printf("sort graph: %zu ops, %d bootstraps, %zu stages\n",
           app.graph.num_nodes(),
           app.graph.count_kind(OpKind::kBootstrap),
           app.stages.size());

    // Rotation keys: the bootstrap pipeline's plus the graph's +-d.
    const Graph* graphs[] = {&app.graph};
    const RotationKeys rot_keys =
        keygen.gen_rotation_keys(sk, required_rotations(graphs, &boot));
    boot.set_keys(&mult_key, &rot_keys, &conj_key);

    // --- encrypt a batch of blocks and bind the stage masks ---------
    const std::size_t slots = 64;
    const std::size_t block = std::size_t{1} << cfg.log_elements;
    const double grid[4] = {-0.75, -0.25, 0.25, 0.75};
    Xoshiro256 rng(2026);
    std::vector<Complex> values(slots);
    for (auto& v : values) {
        v = Complex(grid[rng.next() & 3], 0.0);
    }

    Binding b;
    b.bind(app.values,
           encryptor.encrypt_symmetric(
               encoder.encode(values, traits.delta,
                              traits.bootstrap_out_level),
               sk));
    for (const auto& st : app.stages) {
        const auto bind_mask = [&](Value v, std::vector<Complex> mask) {
            b.bind(v, encoder.encode(mask, traits.delta,
                                     traits.max_level));
        };
        bind_mask(st.mask_lo,
                  apps::sort_mask_lo(cfg.log_elements, st.distance, slots));
        bind_mask(st.mask_hi,
                  apps::sort_mask_hi(cfg.log_elements, st.distance, slots));
        bind_mask(st.select,
                  apps::sort_select_mask(cfg.log_elements, st.phase,
                                         st.distance, slots));
    }

    // --- run + verify ------------------------------------------------
    EvalResources res;
    res.eval = &eval;
    res.encoder = &encoder;
    res.mult_key = &mult_key;
    res.rot_keys = &rot_keys;
    res.conj_key = &conj_key;
    res.bootstrapper = &boot;
    ExecOptions opts;
    opts.lanes = 2;
    const Executor exec(res, opts);
    const auto outs = exec.run(app.graph, std::move(b));
    const auto got = encoder.decode(decryptor.decrypt(outs[0], sk));

    const auto round_to_grid = [&](double x) {
        double best = grid[0];
        for (const double g : grid) {
            if (std::abs(x - g) < std::abs(x - best)) best = g;
        }
        return best;
    };

    int bad_blocks = 0;
    for (std::size_t base = 0; base < slots; base += block) {
        std::vector<double> want;
        for (std::size_t i = 0; i < block; ++i) {
            want.push_back(values[base + i].real());
        }
        std::sort(want.begin(), want.end());
        bool ok = true;
        for (std::size_t i = 0; i < block; ++i) {
            ok &= round_to_grid(got[base + i].real()) == want[i];
        }
        bad_blocks += ok ? 0 : 1;
        if (base == 0) {
            printf("block 0:  in ");
            for (std::size_t i = 0; i < block; ++i) {
                printf("%+.2f ", values[i].real());
            }
            printf(" ->  out ");
            for (std::size_t i = 0; i < block; ++i) {
                printf("%+.3f ", got[i].real());
            }
            printf("\n");
        }
    }
    printf("%zu blocks of %zu sorted under encryption: %s\n",
           slots / block, block,
           bad_blocks == 0 ? "all exact after rounding" : "MISMATCH");
    return bad_blocks == 0 ? 0 : 1;
}
