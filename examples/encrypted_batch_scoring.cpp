/**
 * @file
 * Encrypted batch scoring through the serving harness: N clients each
 * submit an encrypted feature vector; the server scores every request
 * against a plaintext model (inner product + degree-3 sigmoid, the
 * HELR polynomial family) on its worker lanes and hands each client
 * back an encrypted score. One Graph definition serves all clients —
 * the runtime caches its evk handles and CMult plaintexts, so later
 * requests hit warm handles.
 *
 * The flow is the full production shape: encrypt -> submit(graph,
 * binding) -> future -> decrypt, with jobs/s and p50/p99 latency from
 * the server's stats.
 */
#include <cmath>
#include <cstdio>
#include <future>
#include <vector>

#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "runtime/graph_workloads.h"
#include "runtime/server.h"

int
main()
{
    using namespace bts;

    CkksParams params;
    params.n = 1 << 10;
    params.max_level = 6;
    params.dnum = 2;
    const CkksContext ctx(params);
    const CkksEncoder encoder(ctx);
    const Evaluator eval(ctx, encoder);
    KeyGenerator keygen(ctx, 31);
    Encryptor encryptor(ctx, 32);
    const Decryptor decryptor(ctx);
    const SecretKey sk = keygen.gen_secret_key();
    const EvalKey mult_key = keygen.gen_mult_key(sk);
    const RotationKeys rot_keys =
        keygen.gen_rotation_keys(sk, {1, 2, 4, 8});

    constexpr int kFeatures = 16;
    constexpr int kClients = 8;
    const std::size_t slots = ctx.n() / 2;

    // The plaintext-trained model.
    std::vector<double> weights(kFeatures);
    for (int f = 0; f < kFeatures; ++f) {
        weights[f] = 0.3 * std::sin(0.9 * f) - 0.1;
    }

    // Score graph, shared by every request: zero-padded features mean
    // the 16-wide rotation log-tree leaves the full inner product in
    // slot 0; a Horner chain then applies the degree-3 sigmoid
    // 0.5 + 0.15 z - 0.0015 z^3. Spends 1 + 3 levels.
    const runtime::GraphTraits traits = runtime::traits_for(ctx);
    runtime::Graph graph("batch_scoring", traits);
    const runtime::Value x = graph.input(traits.max_level, traits.delta);
    const runtime::Value w =
        graph.plain_input(traits.max_level, traits.delta);
    runtime::Value z = graph.hrescale(graph.pmult(x, w));
    for (int r = 1; r < kFeatures; r <<= 1) {
        z = graph.hadd(z, graph.hrot(z, r));
    }
    runtime::Value acc = graph.hrescale(graph.cmult(z, -0.0015));
    acc = graph.hrescale(graph.hmult(acc, z)); // -0.0015 z^2
    acc = graph.cadd(acc, Complex(0.15, 0.0));
    acc = graph.hrescale(graph.hmult(acc, z)); // 0.15 z - 0.0015 z^3
    acc = graph.cadd(acc, Complex(0.5, 0.0));
    graph.mark_output(acc);

    // Encode the model once; every request shares the handle.
    std::vector<Complex> w_slots(slots, Complex(0, 0));
    for (int f = 0; f < kFeatures; ++f) {
        w_slots[f] = Complex(weights[f], 0);
    }
    const Plaintext w_pt =
        encoder.encode(w_slots, ctx.delta(), ctx.max_level());

    // Each client's features, plaintext-side reference score included.
    Xoshiro256 rng(7);
    std::vector<std::vector<double>> features(kClients);
    std::vector<double> reference(kClients);
    for (int c = 0; c < kClients; ++c) {
        features[c].resize(kFeatures);
        double dot = 0;
        for (int f = 0; f < kFeatures; ++f) {
            features[c][f] = 2 * rng.uniform_real() - 1;
            dot += features[c][f] * weights[f];
        }
        reference[c] = 0.5 + 0.15 * dot - 0.0015 * dot * dot * dot;
    }

    runtime::EvalResources res;
    res.eval = &eval;
    res.encoder = &encoder;
    res.mult_key = &mult_key;
    res.rot_keys = &rot_keys;

    runtime::ServerOptions opts;
    opts.lanes = 2;
    runtime::GraphServer server(res, opts);

    // encrypt -> submit; each job owns its encrypted payload.
    std::vector<std::future<runtime::JobResult>> futures;
    for (int c = 0; c < kClients; ++c) {
        std::vector<Complex> x_slots(slots, Complex(0, 0));
        for (int f = 0; f < kFeatures; ++f) {
            x_slots[f] = Complex(features[c][f], 0);
        }
        runtime::JobRequest req;
        req.graph = &graph;
        req.client = "client-" + std::to_string(c);
        req.inputs.bind(x, encryptor.encrypt_symmetric(
                               encoder.encode(x_slots, ctx.delta(),
                                              ctx.max_level()),
                               sk));
        req.inputs.bind(w, w_pt);
        futures.push_back(server.submit(std::move(req)));
    }

    // future -> decrypt: slot 0 of each result is the client's score.
    std::printf("client   score(HE)   score(plain)   |err|\n");
    double worst = 0;
    for (int c = 0; c < kClients; ++c) {
        const runtime::JobResult r = futures[c].get();
        const auto dec =
            encoder.decode(decryptor.decrypt(r.outputs[0], sk));
        const double got = dec[0].real();
        const double err = std::abs(got - reference[c]);
        worst = std::max(worst, err);
        std::printf("%6d   %9.6f   %12.6f   %.2e\n", c, got,
                    reference[c], err);
    }

    server.drain();
    const runtime::ServerStats stats = server.stats();
    std::printf("\n%zu jobs on %d lanes: %.1f jobs/s, "
                "p50 %.1f ms, p99 %.1f ms\n",
                stats.completed, server.lanes(), stats.jobs_per_s,
                1e3 * stats.p50_latency_s, 1e3 * stats.p99_latency_s);
    std::printf("max |HE - plain| score error: %.2e\n", worst);
    return worst < 1e-3 ? 0 : 1;
}
