/**
 * @file
 * google-benchmark microbenchmarks of the CKKS library kernels: NTT,
 * base conversion, encoding, HMult, rotation, rescale, and a full
 * (small-instance) bootstrap. These measure the *functional* library on
 * the host CPU — the numbers the accelerator is designed to beat.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "ckks/bootstrapper.h"
#include "ckks/decryptor.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "common/bit_ops.h"
#include "common/parallel.h"
#include "math/prime_gen.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/paper.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"
#include "runtime/server.h"
#include "runtime/telemetry/trace.h"
#include "sim/engine.h"

namespace {

using namespace bts;

struct Env
{
    explicit Env(CkksParams p)
        : params(p),
          ctx(p),
          encoder(ctx),
          eval(ctx, encoder),
          keygen(ctx, 1),
          encryptor(ctx, 2),
          decryptor(ctx)
    {
        sk = keygen.gen_secret_key();
        mult_key = keygen.gen_mult_key(sk);
        rot_key = keygen.gen_rotation_key(sk, 1);
        const auto z =
            std::vector<Complex>(ctx.n() / 2, Complex(0.5, 0.25));
        ct = encryptor.encrypt_symmetric(
            encoder.encode(z, ctx.delta(), ctx.max_level()), sk);
    }

    CkksParams params;
    CkksContext ctx;
    CkksEncoder encoder;
    Evaluator eval;
    KeyGenerator keygen;
    Encryptor encryptor;
    Decryptor decryptor;
    SecretKey sk;
    EvalKey mult_key;
    EvalKey rot_key;
    Ciphertext ct;
};

Env&
env()
{
    static Env* e = [] {
        CkksParams p;
        p.n = 1 << 12;
        p.max_level = 8;
        p.dnum = 3;
        return new Env(p);
    }();
    return *e;
}

void
BM_Ntt(benchmark::State& state)
{
    const std::size_t n = state.range(0);
    const u64 prime = generate_ntt_primes(50, 2 * n, 1)[0];
    const NttTables tables(n, prime);
    Sampler s(1);
    auto data = s.uniform_poly(n, prime);
    for (auto _ : state) {
        tables.forward(data.data());
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(state.iterations() * n / 2 *
                            log2_exact(n));
}
BENCHMARK(BM_Ntt)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void
BM_NttLimbSweep(benchmark::State& state)
{
    // The limb-parallel acceptance sweep: a 2^16-point forward NTT over
    // 24 RNS limbs (one ciphertext polynomial of the paper's Set-A
    // scale), swept over the thread knob. Arg(0) is the lane count.
    const std::size_t n = 1 << 16;
    const int limbs = 24;
    const int threads = static_cast<int>(state.range(0));

    static const std::vector<u64> primes =
        generate_ntt_primes(50, 2 * n, limbs);
    static const std::vector<NttTables>* tables = [n] {
        auto* t = new std::vector<NttTables>;
        t->reserve(primes.size());
        for (u64 q : primes) t->emplace_back(n, q);
        return t;
    }();
    std::vector<const NttTables*> table_ptrs;
    for (const auto& t : *tables) table_ptrs.push_back(&t);

    Sampler s(7);
    RnsPoly poly(n, primes, Domain::kCoeff);
    for (int i = 0; i < limbs; ++i) {
        poly.component(i).copy_from(s.uniform_poly(n, primes[i]));
    }

    const int saved_threads = num_threads();
    set_num_threads(threads);
    for (auto _ : state) {
        poly.to_ntt(table_ptrs);
        benchmark::DoNotOptimize(poly.component(0).data());
        state.PauseTiming();
        poly.set_domain(Domain::kCoeff); // re-arm without timing an iNTT
        state.ResumeTiming();
    }
    set_num_threads(saved_threads); // don't clobber later benchmarks
    state.SetItemsProcessed(state.iterations() * limbs * n / 2 *
                            log2_exact(n));
    state.counters["threads"] = threads;
}
BENCHMARK(BM_NttLimbSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_TelemetryOverhead(benchmark::State& state)
{
    // The telemetry acceptance number: BM_NttLimbSweep's 4-thread body
    // with the tracing hooks compiled in, Arg(0)=0 runtime-disabled
    // (the default state every non-traced run pays — must stay within
    // noise of BM_NttLimbSweep/4) and Arg(0)=1 with the kKernel
    // category live (one span emitted per iteration).
    namespace tel = runtime::telemetry;
    const std::size_t n = 1 << 16;
    const int limbs = 24;
    const bool traced = state.range(0) != 0;

    static const std::vector<u64> primes =
        generate_ntt_primes(50, 2 * n, limbs);
    static const std::vector<NttTables>* tables = [n] {
        auto* t = new std::vector<NttTables>;
        t->reserve(primes.size());
        for (u64 q : primes) t->emplace_back(n, q);
        return t;
    }();
    std::vector<const NttTables*> table_ptrs;
    for (const auto& t : *tables) table_ptrs.push_back(&t);

    Sampler s(7);
    RnsPoly poly(n, primes, Domain::kCoeff);
    for (int i = 0; i < limbs; ++i) {
        poly.component(i).copy_from(s.uniform_poly(n, primes[i]));
    }

    const int saved_threads = num_threads();
    set_num_threads(4);
    if (traced) {
        tel::set_enabled(static_cast<u32>(tel::Category::kKernel));
        tel::reset_trace();
    }
    for (auto _ : state) {
        poly.to_ntt(table_ptrs);
        benchmark::DoNotOptimize(poly.component(0).data());
        state.PauseTiming();
        poly.set_domain(Domain::kCoeff); // re-arm without timing an iNTT
        state.ResumeTiming();
    }
    tel::set_enabled(0);
    if (traced) {
        state.counters["events"] = static_cast<double>(
            tel::collect_trace().total_events());
        tel::reset_trace();
    }
    set_num_threads(saved_threads);
    state.SetItemsProcessed(state.iterations() * limbs * n / 2 *
                            log2_exact(n));
    state.counters["traced"] = traced ? 1 : 0;
}
BENCHMARK(BM_TelemetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_BaseConv(benchmark::State& state)
{
    auto& e = env();
    const auto src = e.ctx.level_primes(e.ctx.max_level());
    const std::vector<u64> tgt = e.ctx.p_primes();
    const auto& conv = e.ctx.converter(src, tgt);
    Sampler s(2);
    RnsPoly poly(e.ctx.n(), src, Domain::kCoeff);
    for (std::size_t i = 0; i < src.size(); ++i) {
        poly.component(i).copy_from(s.uniform_poly(e.ctx.n(), src[i]));
    }
    for (auto _ : state) {
        auto out = conv.convert(poly);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_BaseConv);

void
BM_Encode(benchmark::State& state)
{
    auto& e = env();
    const auto z = std::vector<Complex>(e.ctx.n() / 2, Complex(0.3, 0.1));
    for (auto _ : state) {
        auto pt = e.encoder.encode(z, e.ctx.delta(), e.ctx.max_level());
        benchmark::DoNotOptimize(pt);
    }
}
BENCHMARK(BM_Encode);

void
BM_HMult(benchmark::State& state)
{
    auto& e = env();
    for (auto _ : state) {
        auto out = e.eval.mult(e.ct, e.ct, e.mult_key);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_HMult);

void
BM_HRot(benchmark::State& state)
{
    auto& e = env();
    for (auto _ : state) {
        auto out = e.eval.rotate(e.ct, 1, e.rot_key);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_HRot);

void
BM_Rescale(benchmark::State& state)
{
    auto& e = env();
    for (auto _ : state) {
        state.PauseTiming();
        Ciphertext prod = e.eval.mult(e.ct, e.ct, e.mult_key);
        state.ResumeTiming();
        e.eval.rescale_inplace(prod);
        benchmark::DoNotOptimize(prod);
    }
}
BENCHMARK(BM_Rescale);

void
BM_RescaleLowLevel(benchmark::State& state)
{
    // The acceptance sweep for coefficient-level tiling: rescale at a
    // 3-limb chain (the bootstrap-tail regime where per-limb
    // parallelism caps at 2 lanes), swept over the thread knob.
    // Arg(0) is the lane count.
    static Env* re = [] {
        CkksParams p;
        p.n = 1 << 14;
        p.max_level = 8;
        p.dnum = 3;
        return new Env(p);
    }();
    const int threads = static_cast<int>(state.range(0));

    static const Ciphertext* low = [] {
        auto* ct = new Ciphertext(re->ct);
        Evaluator& ev = re->eval;
        ev.drop_level_inplace(*ct, 2); // 3 limbs
        return ct;
    }();

    const int saved_threads = num_threads();
    set_num_threads(threads);
    for (auto _ : state) {
        state.PauseTiming();
        Ciphertext scratch = *low;
        state.ResumeTiming();
        re->eval.rescale_inplace(scratch);
        benchmark::DoNotOptimize(scratch.b.data());
    }
    set_num_threads(saved_threads);
    state.counters["threads"] = threads;
    state.counters["limbs"] = 3;
}
BENCHMARK(BM_RescaleLowLevel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/** Shared machinery for the bootstrap benchmarks: one Env + one
 *  Bootstrapper (with its rotation keys) per (params, radix). */
struct BootBench
{
    BootBench(CkksParams p, std::size_t slots, int radix) : env(p)
    {
        BootstrapConfig cfg;
        cfg.slots = slots;
        cfg.cts_radix = radix;
        cfg.stc_radix = radix;
        boot = std::make_unique<Bootstrapper>(env.ctx, env.encoder, env.eval,
                                              cfg);
        rot_keys = env.keygen.gen_rotation_keys(env.sk,
                                                boot->required_rotations());
        conj = env.keygen.gen_conjugation_key(env.sk);
        boot->set_keys(&env.mult_key, &rot_keys, &conj);
        const auto z = std::vector<Complex>(slots, Complex(0.2, 0.1));
        ct = env.encryptor.encrypt_symmetric(
            env.encoder.encode(z, env.ctx.delta(), 0), env.sk);

        // The staged pipeline the counters time must refresh z.
        StageSeconds unused;
        const auto back =
            env.encoder.decode(env.decryptor.decrypt(run(unused), env.sk));
        for (std::size_t i = 0; i < slots; ++i) {
            if (std::abs(back[i] - z[i]) > 1e-2) {
                throw std::runtime_error(
                    "BootBench: refreshed slot differs from the input");
            }
        }
        counts = count_run();
    }

    /** Seconds each stage took, summed over run() calls. */
    struct StageSeconds
    {
        double subsum = 0, cts = 0, eval_mod = 0, stc = 0;
    };

    /** One refresh's work, from its evaluator and kernel telemetry
     *  spans: counts do not drift with the host as times do. All 0
     *  when built without BTS_TELEMETRY. */
    struct Counts
    {
        double keyswitch = 0; //!< keyswitch spans (hoisted fronts aside)
        double rescale = 0;
        double ntt_limbs = 0; //!< limbs the ntt.* spans transform
        double bconv = 0;
    };

    /** Counts of one traced run(). */
    Counts
    count_run() const
    {
        namespace tel = runtime::telemetry;
        const u32 saved = tel::enabled_mask();
        tel::set_enabled(0);
        tel::reset_trace();
        tel::set_enabled(static_cast<u32>(tel::Category::kKernel) |
                         static_cast<u32>(tel::Category::kEvaluator));
        StageSeconds unused;
        (void)run(unused);
        tel::set_enabled(0);
        const tel::Trace trace = tel::collect_trace();
        tel::reset_trace();
        tel::set_enabled(saved);
        if (trace.total_dropped() != 0) {
            throw std::runtime_error("BootBench: the trace dropped events");
        }
        Counts c;
        for (const tel::ThreadTrace& th : trace.threads) {
            for (const tel::TraceEvent& ev : th.events) {
                const std::string_view name = ev.name;
                if (name.starts_with("ntt.")) {
                    c.ntt_limbs += static_cast<double>(ev.arg);
                }
                c.bconv += name.starts_with("bconv");
                c.keyswitch += name == "keyswitch";
                c.rescale += name == "rescale";
            }
        }
        return c;
    }

    /** One timed bootstrap. */
    Ciphertext
    run(StageSeconds& sec) const
    {
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        const Ciphertext raised = boot->stage_raise_and_subsum(ct);
        const auto t1 = clock::now();
        std::vector<Ciphertext> parts = boot->stage_coeff_to_slot(raised);
        const auto t2 = clock::now();
        for (Ciphertext& part : parts) part = boot->stage_eval_mod(part);
        const auto t3 = clock::now();
        Ciphertext out = boot->stage_slot_to_coeff(parts);
        const auto t4 = clock::now();
        const auto seconds = [](auto a, auto b) {
            return std::chrono::duration<double>(b - a).count();
        };
        sec.subsum += seconds(t0, t1);
        sec.cts += seconds(t1, t2);
        sec.eval_mod += seconds(t2, t3);
        sec.stc += seconds(t3, t4);
        return out;
    }

    Env env;
    std::unique_ptr<Bootstrapper> boot;
    RotationKeys rot_keys;
    EvalKey conj;
    Ciphertext ct;
    Counts counts;
};

void
run_boot_bench(benchmark::State& state, std::size_t n_log2,
               std::size_t slots, int max_level)
{
    // Arg(0) is the CtS/StC radix (0 = dense oracle). One cached
    // Env+Bootstrapper per (ring, radix); per-stage timings and the
    // per-refresh counts land in the counters.
    const int radix = static_cast<int>(state.range(0));
    CkksParams p;
    p.n = std::size_t{1} << n_log2;
    p.max_level = max_level;
    p.dnum = 3;
    p.q0_bits = 50;
    p.hamming_weight = 32;
    static std::map<std::tuple<std::size_t, std::size_t, int, int>,
                    std::unique_ptr<BootBench>>
        cache;
    const auto key = std::make_tuple(n_log2, slots, max_level, radix);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache.emplace(key, std::make_unique<BootBench>(p, slots, radix))
                 .first;
    }
    BootBench& bb = *it->second;
    BootBench::StageSeconds sec;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bb.run(sec));
    }
    const double iters = static_cast<double>(state.iterations());
    state.counters["subsum_ms"] = 1e3 * sec.subsum / iters;
    state.counters["cts_ms"] = 1e3 * sec.cts / iters;
    state.counters["evalmod_ms"] = 1e3 * sec.eval_mod / iters;
    state.counters["stc_ms"] = 1e3 * sec.stc / iters;
    state.counters["rot_keys"] =
        static_cast<double>(bb.boot->required_rotations().size());
    state.counters["radix"] = radix;
    state.counters["keyswitch"] = bb.counts.keyswitch;
    state.counters["rescale"] = bb.counts.rescale;
    state.counters["ntt_limbs"] = bb.counts.ntt_limbs;
    state.counters["bconv"] = bb.counts.bconv;
}

void
BM_Bootstrap(benchmark::State& state)
{
    // Full bootstrap at slots=64 (gap=2), dense oracle vs factored
    // CtS/StC. Small ring so the CI bench job can afford it. L=15 fits
    // radix 4's 3 + 3 stages around EvalMod's 9 levels.
    run_boot_bench(state, 8, 64, 15);
}
BENCHMARK(BM_Bootstrap)->Arg(0)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void
BM_BootstrapLarge(benchmark::State& state)
{
    // The paper-scale (for this repo) instance: N=2^11, slots=512.
    // Excluded from the CI bench job (seconds per iteration); run
    // locally for the dense-vs-factored acceptance numbers.
    run_boot_bench(state, 11, 512, 14);
}
BENCHMARK(BM_BootstrapLarge)
    ->Arg(0)
    ->Arg(32)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

/**
 * The functional instance at @p max_level (runtime::functional_params)
 * with its bootstrapper, whose output level sizes the graphs, and,
 * after gen_keys(), the keys a set of graphs needs.
 */
struct FunctionalEnv
{
    explicit FunctionalEnv(int max_level)
        : env(runtime::functional_params(max_level, 42)),
          boot(env.ctx, env.encoder, env.eval,
               runtime::functional_boot_config()),
          traits(runtime::traits_for(env.ctx, &boot))
    {}

    void
    gen_keys(std::span<const runtime::Graph* const> graphs)
    {
        rot_keys = env.keygen.gen_rotation_keys(
            env.sk, runtime::required_rotations(graphs, &boot));
        conj = env.keygen.gen_conjugation_key(env.sk);
        boot.set_keys(&env.mult_key, &rot_keys, &conj);
    }

    runtime::EvalResources
    resources() const
    {
        return {.eval = &env.eval,
                .encoder = &env.encoder,
                .mult_key = &env.mult_key,
                .rot_keys = &rot_keys,
                .conj_key = &conj,
                .bootstrapper = &boot};
    }

    Env env;
    Bootstrapper boot;
    runtime::GraphTraits traits;
    RotationKeys rot_keys;
    EvalKey conj;
};

/**
 * Shared machinery for BM_Serving: the functional instance at L=14
 * whose three client classes — dot products, Horner polynomial
 * evaluation, and bootstrap-refresh jobs — share the context, keys,
 * and pre-encrypted payloads. Jobs copy a prebuilt Binding, so the
 * timed region covers admission + scheduling + HE execution, not
 * encryption.
 *
 * Two graph sets: sets[0] is the pass-off baseline (rescale placement
 * only — the minimum needed for an executable graph, no CSE or
 * fusion) and sets[1] is the full pass pipeline. BM_Serving's
 * second arg selects the set, so the pass-on vs pass-off serving
 * numbers come from the same env, keys, and payloads.
 */
struct ServeBench : FunctionalEnv
{
    ServeBench() : FunctionalEnv(14)
    {
        const runtime::GraphTraits& t = traits;
        const runtime::passes::PassOptions variants[2] = {
            runtime::passes::PassOptions::rescale_only(),
            runtime::passes::PassOptions{},
        };
        std::vector<const runtime::Graph*> graphs;
        for (int v = 0; v < 2; ++v) {
            GraphSet& s = sets[v];
            s.dot = std::make_unique<runtime::Graph>(
                runtime::dot_product_graph(t, t.max_level, 3,
                                           variants[v]));
            s.poly = std::make_unique<runtime::Graph>(
                runtime::poly_eval_graph(t, t.max_level,
                                         {0.5, -0.25, 1.0, 0.125},
                                         variants[v]));
            s.refresh = std::make_unique<runtime::Graph>(
                runtime::bootstrap_refresh_graph(t, variants[v]));
            graphs.insert(graphs.end(),
                          {s.dot.get(), s.poly.get(), s.refresh.get()});
        }
        gen_keys(graphs);

        const auto z = std::vector<Complex>(64, Complex(0.2, 0.1));
        const Ciphertext exhausted = env.encryptor.encrypt_symmetric(
            env.encoder.encode(z, env.ctx.delta(), 0), env.sk);

        const auto x = std::vector<Complex>(64, Complex(0.4, -0.2));
        const Ciphertext fresh = env.encryptor.encrypt_symmetric(
            env.encoder.encode(x, env.ctx.delta(), env.ctx.max_level()),
            env.sk);
        for (GraphSet& s : sets) {
            s.dot_binding.bind(runtime::Value{s.dot->input_ids()[0]},
                               fresh);
            s.dot_binding.bind(
                runtime::Value{s.dot->input_ids()[1]},
                env.encoder.encode(z, env.ctx.delta(),
                                   env.ctx.max_level()));
            s.poly_binding.bind(runtime::Value{s.poly->input_ids()[0]},
                                fresh);
            s.refresh_binding.bind(
                runtime::Value{s.refresh->input_ids()[0]}, exhausted);
        }
    }

    struct GraphSet
    {
        std::unique_ptr<runtime::Graph> dot, poly, refresh;
        runtime::Binding dot_binding, poly_binding, refresh_binding;
    };

    GraphSet sets[2]; // [0] = pass-off baseline, [1] = full pipeline
};

ServeBench&
serve_bench()
{
    static ServeBench* b = new ServeBench();
    return *b;
}

void
BM_Serving(benchmark::State& state)
{
    // The mixed-client serving scenario: each iteration admits a batch
    // of 6 dot-product, 6 polynomial, and 2 bootstrap-refresh jobs to
    // a GraphServer and waits for all futures. Arg(0) is the lane
    // count; Arg(1) selects the graph set (0 = pass-off baseline,
    // 1 = full pass pipeline); jobs/s and the p50/p99 submit->complete
    // latencies land in the counters (aggregated over the whole run by
    // the server).
    const ServeBench& sb = serve_bench();
    const int lanes = static_cast<int>(state.range(0));
    const int passes_on = static_cast<int>(state.range(1));
    const ServeBench::GraphSet& gs = sb.sets[passes_on ? 1 : 0];

    runtime::ServerOptions opts;
    opts.lanes = lanes;
    runtime::GraphServer server(sb.resources(), opts);
    constexpr int kDot = 6, kPoly = 6, kRefresh = 2;
    for (auto _ : state) {
        std::vector<std::future<runtime::JobResult>> futures;
        futures.reserve(kDot + kPoly + kRefresh);
        const auto submit = [&](const runtime::Graph* g,
                                const runtime::Binding& b,
                                const char* client) {
            runtime::JobRequest req;
            req.graph = g;
            req.inputs = b; // copy: each job owns its payload
            req.client = client;
            futures.push_back(server.submit(std::move(req)));
        };
        for (int i = 0; i < kDot; ++i) {
            submit(gs.dot.get(), gs.dot_binding, "dot");
        }
        for (int i = 0; i < kPoly; ++i) {
            submit(gs.poly.get(), gs.poly_binding, "poly");
        }
        for (int i = 0; i < kRefresh; ++i) {
            submit(gs.refresh.get(), gs.refresh_binding, "refresh");
        }
        for (auto& f : futures) {
            const runtime::JobResult r = f.get();
            benchmark::DoNotOptimize(r.outputs.data());
        }
    }
    const runtime::ServerStats s = server.stats();
    state.SetItemsProcessed(state.iterations() *
                            (kDot + kPoly + kRefresh));
    state.counters["lanes"] = lanes;
    state.counters["passes"] = passes_on;
    state.counters["jobs_per_s"] = s.jobs_per_s;
    state.counters["p50_ms"] = 1e3 * s.p50_latency_s;
    state.counters["p99_ms"] = 1e3 * s.p99_latency_s;
}
BENCHMARK(BM_Serving)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_ServingCostAdmission(benchmark::State& state)
{
    // Cost-aware admission on one lane, mixed traffic: each iteration
    // front-loads 2 expensive bootstrap-refresh jobs and then 6 cheap
    // dot products. SJF pulls the cheap jobs ahead of the queued
    // refreshes, which is the cheap-client p99 the counters expose.
    // est_ratio vs exec_ratio is the predicted-vs-measured calibration
    // check: the static cost model's expensive/cheap cost ratio
    // against the wall-clock one (model seconds are simulator time, so
    // only the ratio is comparable).
    const ServeBench& sb = serve_bench();
    const ServeBench::GraphSet& gs = sb.sets[1];

    runtime::ServerOptions opts;
    opts.lanes = 1; // queue ordering, not lane count, under test
    runtime::GraphServer server(sb.resources(), opts);
    // Register so admission has cost estimates, and rebind the
    // prebuilt payloads onto the server's cached optimized graphs.
    const runtime::passes::OptimizeResult* dot =
        server.register_graph(*gs.dot);
    const runtime::passes::OptimizeResult* refresh =
        server.register_graph(*gs.refresh);
    const auto rebind = [](const runtime::Binding& from,
                           const runtime::passes::OptimizeResult* to) {
        runtime::Binding b;
        for (const auto& [id, ct] : from.ciphers) {
            b.bind(to->remap(runtime::Value{id}), ct);
        }
        for (const auto& [id, pt] : from.plains) {
            b.bind(to->remap(runtime::Value{id}), pt);
        }
        return b;
    };
    const runtime::Binding dot_b = rebind(gs.dot_binding, dot);
    const runtime::Binding refresh_b =
        rebind(gs.refresh_binding, refresh);

    constexpr int kRefresh = 2, kDot = 6;
    double est_dot = 0, est_refresh = 0;
    double exec_dot = 0, exec_refresh = 0;
    for (auto _ : state) {
        std::vector<std::future<runtime::JobResult>> futures;
        futures.reserve(kRefresh + kDot);
        const auto submit = [&](const runtime::Graph* g,
                                const runtime::Binding& b,
                                const char* client) {
            runtime::JobRequest req;
            req.graph = g;
            req.inputs = b; // copy: each job owns its payload
            req.client = client;
            futures.push_back(server.submit(std::move(req)));
        };
        for (int i = 0; i < kRefresh; ++i) {
            submit(&refresh->graph, refresh_b, "expensive");
        }
        for (int i = 0; i < kDot; ++i) {
            submit(&dot->graph, dot_b, "cheap");
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const runtime::JobResult r = futures[i].get();
            benchmark::DoNotOptimize(r.outputs.data());
            if (i < kRefresh) {
                est_refresh += r.est_cost_s;
                exec_refresh += r.exec_s;
            } else {
                est_dot += r.est_cost_s;
                exec_dot += r.exec_s;
            }
        }
    }
    server.drain();
    const runtime::ServerStats s = server.stats();
    state.SetItemsProcessed(state.iterations() * (kRefresh + kDot));
    const auto it = s.p99_latency_by_client_s.find("cheap");
    state.counters["cheap_p99_ms"] =
        it == s.p99_latency_by_client_s.end() ? 0.0
                                              : 1e3 * it->second;
    state.counters["p99_ms"] = 1e3 * s.p99_latency_s;
    // Predicted vs measured cost ratio (expensive / cheap class).
    state.counters["est_ratio"] =
        est_dot > 0 ? (est_refresh / kRefresh) / (est_dot / kDot) : 0;
    state.counters["exec_ratio"] =
        exec_dot > 0 ? (exec_refresh / kRefresh) / (exec_dot / kDot)
                     : 0;
}
BENCHMARK(BM_ServingCostAdmission)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Shared machinery for BM_Helr / BM_AppServing: the functional
 * instance at L=20 (runtime::functional_params; 8 levels left after
 * the bootstrap budget) running the runtime/apps graph ports of the
 * paper's Table 5/6 applications functionally: HELR training
 * iterations, ResNet-20-style inference jobs, and encrypted bitonic
 * sorting, all with genuine mid-circuit Bootstrap refreshes. Bindings
 * are prebuilt and copied per run, so the timed region covers
 * scheduling + HE execution, not encryption.
 */
struct AppServeBench : FunctionalEnv
{
    AppServeBench() : FunctionalEnv(20)
    {
        using namespace runtime::apps;
        helr = std::make_unique<HelrApp>(
            build_helr(HelrConfig::functional(), traits));
        HelrConfig raw_cfg = HelrConfig::functional();
        raw_cfg.optimize = false; // pass-off baseline for BM_Helr
        helr_raw = std::make_unique<HelrApp>(build_helr(raw_cfg, traits));
        resnet = std::make_unique<ResnetApp>(
            build_resnet(ResnetConfig::functional(), traits));
        sort_cfg = SortConfig::functional();
        sort = std::make_unique<SortApp>(build_sort(sort_cfg, traits));

        const runtime::Graph* graphs[] = {&helr->graph, &helr_raw->graph,
                                          &resnet->graph, &sort->graph};
        gen_keys(graphs);

        const auto flat = [](double v) {
            return std::vector<Complex>(64, Complex(v, 0.0));
        };
        bind_ct(helr_binding, helr->weights, flat(0.05));
        for (const runtime::Value d : helr->data) {
            bind_pt(helr_binding, d, flat(0.3));
        }
        bind_pt(helr_binding, helr->grad_data, flat(0.01));

        bind_ct(helr_raw_binding, helr_raw->weights, flat(0.05));
        for (const runtime::Value d : helr_raw->data) {
            bind_pt(helr_raw_binding, d, flat(0.3));
        }
        bind_pt(helr_raw_binding, helr_raw->grad_data, flat(0.01));

        bind_ct(resnet_binding, resnet->act, flat(0.3));
        for (const auto& layer : resnet->taps) {
            for (const runtime::Value tap : layer) {
                bind_pt(resnet_binding, tap,
                        flat(0.5 / static_cast<double>(layer.size())));
            }
        }
        bind_pt(resnet_binding, resnet->pool_weights, flat(0.125));

        std::vector<Complex> grid(64);
        const double vals[4] = {0.75, -0.25, 0.25, -0.75};
        for (std::size_t i = 0; i < grid.size(); ++i) {
            grid[i] = Complex(vals[i % 4], 0.0);
        }
        bind_ct(sort_binding, sort->values, grid);
        for (const auto& st : sort->stages) {
            const int k = sort_cfg.log_elements;
            bind_pt(sort_binding, st.mask_lo,
                    sort_mask_lo(k, st.distance, 64));
            bind_pt(sort_binding, st.mask_hi,
                    sort_mask_hi(k, st.distance, 64));
            bind_pt(sort_binding, st.select,
                    sort_select_mask(k, st.phase, st.distance, 64));
        }
    }

    void
    bind_ct(runtime::Binding& b, runtime::Value v,
            const std::vector<Complex>& z)
    {
        b.bind(v, env.encryptor.encrypt_symmetric(
                      env.encoder.encode(z, traits.delta,
                                         traits.bootstrap_out_level),
                      env.sk));
    }

    void
    bind_pt(runtime::Binding& b, runtime::Value v,
            const std::vector<Complex>& z)
    {
        b.bind(v, env.encoder.encode(z, traits.delta, traits.max_level));
    }

    std::unique_ptr<runtime::apps::HelrApp> helr;
    std::unique_ptr<runtime::apps::HelrApp> helr_raw; // pass-off
    std::unique_ptr<runtime::apps::ResnetApp> resnet;
    std::unique_ptr<runtime::apps::SortApp> sort;
    runtime::apps::SortConfig sort_cfg;
    runtime::Binding helr_binding, helr_raw_binding, resnet_binding,
        sort_binding;
};

AppServeBench&
app_bench()
{
    static AppServeBench* b = new AppServeBench();
    return *b;
}

void
BM_Helr(benchmark::State& state)
{
    // One functional-scale HELR training run (3 iterations, 2 data
    // plaintexts, full 64-slot feature reduction, 2 mid-training
    // bootstraps) per iteration on the Executor. Arg(0) = lanes;
    // Arg(1) = pass pipeline on/off (0 runs the unoptimized graph).
    auto& ab = app_bench();
    const int lanes = static_cast<int>(state.range(0));
    const int passes_on = static_cast<int>(state.range(1));
    const runtime::apps::HelrApp& app =
        passes_on ? *ab.helr : *ab.helr_raw;
    const runtime::Binding& binding =
        passes_on ? ab.helr_binding : ab.helr_raw_binding;
    runtime::ExecOptions opts;
    opts.lanes = lanes;
    const runtime::Executor exec(ab.resources(), opts);
    for (auto _ : state) {
        auto outs = exec.run(app.graph, runtime::Binding(binding));
        benchmark::DoNotOptimize(outs.data());
    }
    state.counters["lanes"] = lanes;
    state.counters["passes"] = passes_on;
    state.counters["bootstraps"] =
        app.graph.count_kind(runtime::OpKind::kBootstrap);
    state.counters["graph_ops"] =
        static_cast<double>(app.graph.num_nodes());
}
BENCHMARK(BM_Helr)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_AppServing(benchmark::State& state)
{
    // The application serving scenario: each iteration admits 2
    // encrypted ResNet inference jobs and 1 encrypted sorting job to a
    // GraphServer and waits for all futures. Arg(0) = lane count.
    auto& ab = app_bench();
    const int lanes = static_cast<int>(state.range(0));

    runtime::ServerOptions opts;
    opts.lanes = lanes;
    runtime::GraphServer server(ab.resources(), opts);
    constexpr int kResnet = 2, kSort = 1;
    for (auto _ : state) {
        std::vector<std::future<runtime::JobResult>> futures;
        futures.reserve(kResnet + kSort);
        const auto submit = [&](const runtime::Graph* g,
                                const runtime::Binding& b,
                                const char* client) {
            runtime::JobRequest req;
            req.graph = g;
            req.inputs = b; // copy: each job owns its payload
            req.client = client;
            futures.push_back(server.submit(std::move(req)));
        };
        for (int i = 0; i < kResnet; ++i) {
            submit(&ab.resnet->graph, ab.resnet_binding, "resnet");
        }
        for (int i = 0; i < kSort; ++i) {
            submit(&ab.sort->graph, ab.sort_binding, "sort");
        }
        for (auto& f : futures) {
            const runtime::JobResult r = f.get();
            benchmark::DoNotOptimize(r.outputs.data());
        }
    }
    const runtime::ServerStats s = server.stats();
    state.SetItemsProcessed(state.iterations() * (kResnet + kSort));
    state.counters["lanes"] = lanes;
    state.counters["jobs_per_s"] = s.jobs_per_s;
    state.counters["p50_ms"] = 1e3 * s.p50_latency_s;
    state.counters["p99_ms"] = 1e3 * s.p99_latency_s;
}
BENCHMARK(BM_AppServing)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** The pairs sim-paper sweeps: the raw paper HELR, ResNet-20 and
 *  sorting graphs and tmult_graph on each Table 4 instance. */
struct PaperPair
{
    hw::CkksInstance inst;
    runtime::Graph graph;
};

const std::vector<PaperPair>&
paper_pairs()
{
    static const std::vector<PaperPair>* pairs = [] {
        auto* out = new std::vector<PaperPair>;
        for (const hw::CkksInstance& inst : hw::table4_instances()) {
            for (const char* name : {"helr", "resnet", "sort", "tmult"}) {
                out->push_back({inst, runtime::apps::paper_graph(name, inst)});
            }
        }
        return out;
    }();
    return *pairs;
}

void
BM_PaperSweep(benchmark::State& state)
{
    // One sweep per iteration: lower_to_trace, then BtsSimulator::run,
    // over the 12 paper pairs -- the path every simulated figure and
    // the sim-paper end-to-end workload take. ops and bootstraps are
    // one sweep's exact trace totals; lower_ms and run_ms split the
    // sweep's time between the two layers.
    const auto& pairs = paper_pairs();
    const sim::BtsConfig hw;
    using Clock = std::chrono::steady_clock;
    double lower_s = 0, run_s = 0;
    std::size_t ops = 0;
    int bootstraps = 0;
    for (auto _ : state) {
        ops = 0;
        bootstraps = 0;
        for (const PaperPair& p : pairs) {
            const Clock::time_point a = Clock::now();
            const sim::Trace trace = runtime::lower_to_trace(p.graph, p.inst);
            const Clock::time_point b = Clock::now();
            const sim::SimResult r = sim::BtsSimulator(hw, p.inst).run(trace);
            const Clock::time_point c = Clock::now();
            benchmark::DoNotOptimize(r.total_s);
            lower_s += std::chrono::duration<double>(b - a).count();
            run_s += std::chrono::duration<double>(c - b).count();
            ops += trace.ops.size();
            bootstraps += trace.bootstrap_count;
        }
    }
    const auto iters = static_cast<double>(state.iterations());
    state.counters["lower_ms"] = 1e3 * lower_s / iters;
    state.counters["run_ms"] = 1e3 * run_s / iters;
    state.counters["ops"] = static_cast<double>(ops);
    state.counters["bootstraps"] = bootstraps;
}
BENCHMARK(BM_PaperSweep)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
