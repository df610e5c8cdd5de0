/**
 * @file
 * boot-tmult: the paper's Eq. 8 microbenchmark, run for real.
 *
 * A closed loop with one client against a one-lane GraphServer whose
 * executor has two lanes (lanes_per_job = 2). Each job takes a level-0
 * ciphertext through Bootstrap, then squares it with HMult+rescale down
 * every level the refresh left (7 at N=2^11, L=20, radix-32 CtS/StC,
 * sine degree 119), so each slot ends holding x^(2^7). T_mult,a/slot is
 * the median job latency over (levels x slots).
 *
 * The bootstrapper, key-switching, BConv and NTT at the repository's
 * largest ring do nearly all the work; nothing queues. The spare
 * executor lane is idle today and lets a bootstrap-as-graph change show
 * up without editing the benchmark.
 */
#include <cmath>
#include <memory>

#include "bench.h"
#include "common/random.h"
#include "crypto.h"
#include "common/workspace.h"
#include "layers.h"
#include "runtime/server.h"
#include "runtime/telemetry/trace.h"

namespace perfbench {

namespace {

using namespace bts;
using namespace bts::runtime;
namespace tel = bts::runtime::telemetry;

constexpr std::size_t kSlots = 512;
constexpr int kLevels = 7;        //!< squarings after the refresh
constexpr int kSetups = 3;        //!< fresh set-ups per run (median)
constexpr std::size_t kPool = 2;  //!< seeded inputs, alternated
/**
 * EvalMod range. At N=2^11 the ModRaise integer part reached 13 in
 * about one refresh in twelve (measured), past the library default
 * K = 12; degree 119 still converges at K = 14 (e*pi*K = 110) and the
 * refresh error measured 3-5e-4 there, against 6e-4-1e-3 at K = 12.
 */
constexpr double kRange = 14;
/**
 * Bound on |decrypt / x^128 - 1|. The refresh error grows up to
 * 128-fold over the squarings (below 0.1 measured); a garbled refresh
 * sends x^128 to 0 or far past 1.
 */
constexpr double kTolerance = 0.5;
/** Bound on the probe refresh's own error (no squarings yet). */
constexpr double kRefreshTolerance = 1e-2;
/** Redraws allowed per input before set-up gives up. */
constexpr int kDraws = 8;

BootstrapConfig
boot_config()
{
    BootstrapConfig cfg;
    cfg.slots = kSlots;
    cfg.sine_degree = 119;
    cfg.k_range = kRange;
    cfg.cts_radix = 32;
    cfg.stc_radix = 32;
    return cfg;
}

struct Input
{
    Ciphertext ct;
    std::vector<Complex> z;     //!< encrypted slot values
    std::vector<double> expect; //!< x^(2^kLevels) per slot
};

/**
 * Everything one set-up builds: keys, bootstrapper, server, inputs.
 *
 * The seeded inputs are validated while setting up, by work set-up
 * does anyway: input 0 is the probe refresh, input 1 the warm-up job.
 * An input whose refresh garbles (EvalMod range exceeded) fails every
 * time -- evaluation is deterministic -- so it is redrawn from the same
 * seeded stream rather than left to fail jobs.
 */
struct Env
{
    explicit Env(u64 seed)
        : c(ckks_params(std::size_t{1} << 11, seed), seed, boot_config()),
          rng(seed * 4 + 3)
    {
        for (std::size_t i = 0; i < kPool; ++i) pool.push_back(draw());

        // The probe refresh pins the refreshed level the graph is
        // declared against.
        traits.max_level = c.ctx.max_level();
        traits.delta = c.ctx.delta();
        for (int d = 0;; ++d) {
            const Ciphertext out = c.boot->bootstrap(pool[0].ct);
            traits.bootstrap_out_level = out.level;
            if (max_diff(out, pool[0].z) < kRefreshTolerance) break;
            if (d == kDraws) throw std::runtime_error("no refreshable input");
            pool[0] = draw();
        }
        if (traits.bootstrap_out_level != kLevels) {
            throw std::runtime_error("bootstrap refreshed to level " +
                                     std::to_string(
                                         traits.bootstrap_out_level));
        }
        Graph g("boot_tmult", traits);
        Value x = g.input(0, traits.delta);
        input = x;
        x = g.bootstrap(x);
        for (int l = 0; l < kLevels; ++l) x = g.hmult_rescale(x, x);
        g.mark_output(x);

        ServerOptions opts;
        opts.lanes = 1;
        opts.lanes_per_job = 2;
        server = std::make_unique<GraphServer>(c.resources(), opts);
        const Clock::time_point t0 = Clock::now();
        reg = server->register_graph(g);
        register_ms = 1e3 * since(t0);
        input = reg->remap(input);

        // Warm-up: the executor's plan cache and the workspace pool.
        for (int d = 0; !(error(submit(1).get(), 1) < kTolerance); ++d) {
            if (d == kDraws) throw std::runtime_error("no refreshable input");
            pool[1] = draw();
        }
    }

    /** A fresh level-0 input from the seeded stream: |x| in
     *  [0.985, 1], so x^128 stays in [0.14, 1]. */
    Input
    draw()
    {
        Input in;
        in.z.resize(kSlots);
        for (auto& v : in.z) {
            const double sign = rng.uniform_real() < 0.5 ? -1.0 : 1.0;
            v = Complex(sign * (1.0 - 0.015 * rng.uniform_real()), 0);
            in.expect.push_back(std::pow(v.real(), 1 << kLevels));
        }
        in.ct = c.encryptor.encrypt_symmetric(
            c.encoder.encode(in.z, c.ctx.delta(), 0), c.sk);
        return in;
    }

    std::future<JobResult>
    submit(std::size_t i)
    {
        JobRequest req;
        req.graph = &reg->graph;
        req.client = "tmult";
        req.inputs.bind(input, pool[i].ct);
        return server->submit(std::move(req));
    }

    double
    max_diff(const Ciphertext& ct, const std::vector<Complex>& want) const
    {
        const auto got = c.encoder.decode(c.decryptor.decrypt(ct, c.sk));
        double worst = 0;
        for (std::size_t s = 0; s < kSlots; ++s) {
            worst = std::max(worst, std::abs(got[s] - want[s]));
        }
        return worst;
    }

    /** Largest |decrypt / x^128 - 1| over the slots (infinite when the
     *  job returned the wrong number of outputs). */
    double
    error(const JobResult& r, std::size_t i) const
    {
        if (r.outputs.size() != 1) return INFINITY;
        const auto got =
            c.encoder.decode(c.decryptor.decrypt(r.outputs[0], c.sk));
        double worst = 0;
        for (std::size_t s = 0; s < kSlots; ++s) {
            worst = std::max(worst, std::abs(got[s] / pool[i].expect[s] - 1.0));
        }
        return worst;
    }

    Crypto c;
    Xoshiro256 rng; //!< input values
    std::vector<Input> pool;
    GraphTraits traits;
    Value input;
    double register_ms = 0;
    const passes::OptimizeResult* reg = nullptr;
    std::unique_ptr<GraphServer> server; //!< last: borrows the above
};

} // namespace

Outcome
run_boot_tmult(const Args& args)
{
    Outcome out;
    std::vector<double> latency_ms, traced_ms, untraced_ms;
    double exec_ms = 0, queue_ms = 0, traced_latency_ms = 0, worst_error = 0;
    std::size_t traced_jobs = 0;
    LayerTotals layers;
    if (args.trace) tel::reset_trace();
    reset_workspace_stats();

    const auto job = [&](Env& env) {
        const std::size_t i = out.attempted % kPool;
        // Traced runs alternate traced and untraced jobs: the untraced
        // ones are the baseline for telemetry.overhead_share.
        const bool traced = args.trace && out.attempted % 2 == 0;
        if (traced) tel::set_enabled(traced_categories());
        ++out.attempted;
        const Clock::time_point t0 = Clock::now();
        JobResult r;
        try {
            r = env.submit(i).get();
        } catch (const std::exception&) {
            if (traced) tel::set_enabled(0);
            ++out.failed;
            return;
        }
        const double ms = 1e3 * since(t0);
        if (traced) {
            tel::set_enabled(0);
            add_trace(tel::collect_trace(), layers);
            tel::reset_trace();
            traced_ms.push_back(ms);
            traced_latency_ms += ms;
            exec_ms += 1e3 * r.exec_s;
            queue_ms += 1e3 * r.queue_s;
            ++traced_jobs;
        } else {
            untraced_ms.push_back(ms);
        }
        latency_ms.push_back(ms);
        const double err = env.error(r, i);
        worst_error = std::max(worst_error, err);
        if (!(err < kTolerance)) ++out.failed;
    };
    std::unique_ptr<Env> env;
    const double setup_s = closed_loop(
        args.seconds, kSetups,
        [&] { return std::make_unique<Env>(args.seed); }, job, env);
    for (const Input& in : env->pool) {
        for (std::size_t i = 0; i < in.ct.b.num_primes(); ++i) {
            const auto row = in.ct.b.component(i);
            out.input_digest = digest_bytes(out.input_digest, row.data(),
                                            row.size() * sizeof(u64));
        }
    }
    const WorkspaceStats ws = workspace_stats();

    const double p50 = median(latency_ms);
    out.report.push_back({"max_rel_error", {worst_error, "share"}});
    if (!args.trace) {
        out.end_to_end["setup_s"] = {setup_s, "s"};
        out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
        put_single_class(out, p50);
        out.report.push_back({"latency_p50_ms", {p50, "ms"}});
        out.report.push_back(
            {"tmult_slot_us",
             {1e3 * p50 / (kLevels * static_cast<double>(kSlots)), "us"}});
        return out;
    }

    const double jobs = static_cast<double>(traced_jobs);
    const double per = jobs > 0 ? 1.0 / jobs : 0.0;
    LayerExtras x;
    x.job_latency_ms = traced_latency_ms * per;
    x.executor_unattributed_ms = (exec_ms - layers.node_ms) * per;
    x.queue_mean_ms = queue_ms * per;
    x.bench_unattributed_ms = (traced_latency_ms - exec_ms - queue_ms) * per;
    x.register_ms = env->register_ms;
    key_sizes(env->c, x);
    x.ws = ws;
    x.overhead_share = overhead_share(traced_ms, untraced_ms);
    put_layers(layers, jobs, x, out);
    // The self times, the executor's gap, the queue and the client's
    // own share partition the latency only if each is non-negative.
    out.error = check_accounting(layers, exec_ms);
    if (out.error.empty() && x.bench_unattributed_ms < 0) {
        out.error = "queue plus execution exceed the client's latency";
    }
    out.report.push_back({"trace.events_per_job",
                          {static_cast<double>(layers.events) * per,
                           "count"}});
    return out;
}

} // namespace perfbench
