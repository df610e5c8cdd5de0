/**
 * @file
 * bts_profile: run a builtin workload/app graph through the real
 * serving stack (GraphServer lanes -> Executor -> Evaluator -> RNS
 * kernels) with runtime tracing enabled, then close the loop between
 * the static cost model and what actually ran: a per-op-kind table of
 * node count, measured seconds, statically predicted seconds and the
 * per-kind share of each — the software counterpart of the paper's
 * predicted-vs-measured methodology.
 *
 * Usage:
 *   bts_profile --list
 *   bts_profile --graph=resnet [--lanes=2] [--jobs=3]
 *               [--format=text|json] [--trace=FILE] [--metrics]
 *
 * --trace writes the full capture as Chrome trace-event JSON (load in
 * Perfetto / chrome://tracing; one track per server lane — the
 * measured Fig. 8 timeline). --metrics appends the process metrics
 * registry in Prometheus text format after the run.
 *
 * The instance is the functional instance at L=20
 * (runtime::functional_params and functional_boot_config; insecure,
 * see functional_params). The bootstrapper, built without keys,
 * states the refresh level the graphs are sized against; a run then
 * generates only the keys its graph needs (runtime::required_rotations),
 * so dot and poly smoke-test in seconds. Exit code: 0 on success, 2 on
 * usage errors.
 */
#include <charconv>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "ckks/bootstrapper.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/random.h"
#include "runtime/apps/helr.h"
#include "runtime/apps/resnet.h"
#include "runtime/apps/sort.h"
#include "runtime/graph_workloads.h"
#include "runtime/server.h"
#include "runtime/telemetry/chrome_trace.h"
#include "runtime/telemetry/metrics.h"
#include "runtime/telemetry/profile.h"
#include "runtime/telemetry/trace.h"

namespace {

using namespace bts;
using namespace bts::runtime;

/** One builtin graph at functional scale. */
struct Builtin
{
    const char* name;
    const char* what;
    Graph (*build)(const GraphTraits& traits);
};

constexpr Builtin kBuiltins[] = {
    {"dot", "encrypted dot product (rotation log-tree)",
     [](const GraphTraits& t) {
         return dot_product_graph(t, t.max_level, 3);
     }},
    {"poly", "degree-3 Horner polynomial evaluation",
     [](const GraphTraits& t) {
         return poly_eval_graph(t, t.max_level, {1.0, 0.5, 0.25, 0.125});
     }},
    {"refresh", "one Bootstrap refresh",
     [](const GraphTraits& t) { return bootstrap_refresh_graph(t); }},
    {"helr", "HELR logistic training, functional scale",
     [](const GraphTraits& t) {
         apps::HelrConfig cfg = apps::HelrConfig::functional();
         cfg.iterations = 2;
         return std::move(apps::build_helr(cfg, t).graph);
     }},
    {"resnet", "ResNet-20-style inference, functional scale",
     [](const GraphTraits& t) {
         return std::move(
             apps::build_resnet(apps::ResnetConfig::functional(), t).graph);
     }},
    {"sort", "bitonic sorting network, functional scale",
     [](const GraphTraits& t) {
         return std::move(
             apps::build_sort(apps::SortConfig::functional(), t).graph);
     }},
};

/**
 * The serving environment: context, a bootstrapper whose output level
 * sizes the graphs, and (after gen_keys) the key material one graph
 * needs.
 */
struct ProfileEnv
{
    ProfileEnv()
        : ctx(functional_params(20, 7321)),
          encoder(ctx),
          evaluator(ctx, encoder),
          boot(ctx, encoder, evaluator, functional_boot_config()),
          traits(traits_for(ctx, &boot)),
          keygen(ctx, ctx.params().seed + 1),
          encryptor(ctx, ctx.params().seed + 2)
    {}

    /** Generate the keys @p g needs. */
    void
    gen_keys(const Graph& g)
    {
        sk = keygen.gen_secret_key();
        mult_key = keygen.gen_mult_key(sk);
        conj_key = keygen.gen_conjugation_key(sk);
        const Graph* graphs[] = {&g};
        rot_keys =
            keygen.gen_rotation_keys(sk, required_rotations(graphs, &boot));
        boot.set_keys(&mult_key, &rot_keys, &conj_key);
    }

    std::vector<Complex>
    random_vec(double magnitude, u64 seed) const
    {
        Xoshiro256 rng(seed);
        std::vector<Complex> z(boot.config().slots);
        for (auto& v : z) {
            v = Complex(magnitude * (2 * rng.uniform_real() - 1), 0.0);
        }
        return z;
    }

    Ciphertext
    encrypt(const std::vector<Complex>& z, int level)
    {
        const Plaintext pt = encoder.encode(z, ctx.delta(), level);
        return encryptor.encrypt_symmetric(pt, sk);
    }

    EvalResources
    resources() const
    {
        return {.eval = &evaluator,
                .encoder = &encoder,
                .mult_key = &mult_key,
                .rot_keys = &rot_keys,
                .conj_key = &conj_key,
                .bootstrapper = &boot};
    }

    /** Bind every declared input of @p g with random slot data at the
     *  declared exact level — valid metadata for any builtin; the
     *  profile cares about timing, not decrypted values. */
    Binding
    make_binding(const Graph& g, u64 seed)
    {
        Binding b;
        for (const int id : g.input_ids()) {
            if (g.value(id).is_plain) {
                b.bind(Value{id},
                       encoder.encode(random_vec(0.3, seed + u64(id)),
                                      traits.delta, traits.max_level));
            } else {
                b.bind(Value{id}, encrypt(random_vec(0.3, seed + u64(id)),
                                          g.value(id).level));
            }
        }
        return b;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    Evaluator evaluator;
    Bootstrapper boot;
    GraphTraits traits;
    KeyGenerator keygen;
    Encryptor encryptor;
    SecretKey sk;
    EvalKey mult_key;
    EvalKey conj_key;
    RotationKeys rot_keys;
};

struct Args
{
    bool list = false;
    bool metrics = false;
    std::string graph;
    std::string format = "text";
    std::string trace_path;
    int lanes = 2;
    int jobs = 3;
};

std::optional<Args>
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* prefix) {
            return arg.substr(std::string(prefix).size());
        };
        // A count flag's whole value must be an int.
        const auto count = [&](const char* prefix, int& out) {
            const std::string text = value(prefix);
            const char* end = text.data() + text.size();
            const auto [ptr, ec] = std::from_chars(text.data(), end, out);
            if (ec == std::errc{} && ptr == end) return true;
            std::cerr << "'" << arg << "' needs an integer\n";
            return false;
        };
        if (arg == "--list") {
            a.list = true;
        } else if (arg == "--metrics") {
            a.metrics = true;
        } else if (arg.rfind("--graph=", 0) == 0) {
            a.graph = value("--graph=");
        } else if (arg.rfind("--format=", 0) == 0) {
            a.format = value("--format=");
        } else if (arg.rfind("--trace=", 0) == 0) {
            a.trace_path = value("--trace=");
        } else if (arg.rfind("--lanes=", 0) == 0) {
            if (!count("--lanes=", a.lanes)) return std::nullopt;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            if (!count("--jobs=", a.jobs)) return std::nullopt;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return std::nullopt;
        }
    }
    if (!a.list && a.graph.empty()) {
        std::cerr << "pick a graph: --graph=NAME (or --list)\n";
        return std::nullopt;
    }
    if (a.format != "text" && a.format != "json") {
        std::cerr << "--format must be text or json\n";
        return std::nullopt;
    }
    if (a.lanes < 1 || a.jobs < 1) {
        std::cerr << "--lanes and --jobs must be >= 1\n";
        return std::nullopt;
    }
    return a;
}

int
run(const Args& args)
{
    namespace tel = bts::runtime::telemetry;

    const Builtin* builtin = nullptr;
    for (const Builtin& b : kBuiltins) {
        if (args.graph == b.name) builtin = &b;
    }
    if (builtin == nullptr) {
        std::cerr << "unknown builtin graph: " << args.graph
                  << " (try --list)\n";
        return 2;
    }

    ProfileEnv env;
    const Graph g = builtin->build(env.traits);
    env.gen_keys(g);

    ServerOptions opts;
    opts.lanes = args.lanes;
    GraphServer server(env.resources(), opts);
    // register_graph verifies, optimizes and prices the graph; each job
    // submitted against the optimized form carries that summary, whose
    // per-node predicted costs tag the spans.
    const passes::OptimizeResult* reg = server.register_graph(g);
    const analysis::ResourceSummary* summary =
        server.resource_summary(reg->graph);
    if (summary == nullptr) {
        std::cerr << "note: no static cost estimate for this graph on "
                     "the serving instance; predicted column will be 0\n";
    }

    // Trace every layer except the workspace pool (its per-buffer
    // instants dwarf everything else; enable by hand when studying the
    // pool itself).
    tel::set_enabled(tel::kAllCategories &
                     ~static_cast<u32>(tel::Category::kWorkspace));
    tel::reset_trace();

    std::vector<std::future<JobResult>> futures;
    futures.reserve(static_cast<std::size_t>(args.jobs));
    for (int j = 0; j < args.jobs; ++j) {
        JobRequest req;
        req.graph = &reg->graph;
        req.client = "bts_profile";
        req.inputs = env.make_binding(reg->graph, 9000 + u64(j) * 131);
        futures.push_back(server.submit(std::move(req)));
    }
    for (auto& f : futures) f.get();
    server.drain();
    tel::set_enabled(0);

    const tel::Trace trace = tel::collect_trace();
    const tel::ProfileReport report = tel::profile_from_trace(trace);

    if (args.format == "json") {
        std::cout << tel::render_profile_json(report) << "\n";
    } else {
        std::cout << "graph: " << reg->graph.name() << "  lanes: "
                  << args.lanes << "  jobs: " << args.jobs << "\n"
                  << tel::render_profile_text(report);
    }

    if (!args.trace_path.empty()) {
        std::ofstream out(args.trace_path);
        if (!out) {
            std::cerr << "cannot open " << args.trace_path << "\n";
            return 2;
        }
        tel::write_chrome_trace(trace, out);
        std::cerr << "wrote " << trace.total_events() << " events to "
                  << args.trace_path << "\n";
    }
    if (args.metrics) {
        std::cout << tel::MetricsRegistry::instance().render_prometheus();
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) return 2;
    try {
        if (args->list) {
            const ProfileEnv env;
            for (const Builtin& b : kBuiltins) {
                std::cout << b.name << "\t" << b.what
                          << (b.build(env.traits).uses_bootstrap()
                                  ? "\t[bootstrap]"
                                  : "")
                          << "\n";
            }
            return 0;
        }
        return run(*args);
    } catch (const std::exception& e) {
        std::cerr << "bts_profile: " << e.what() << "\n";
        return 2;
    }
}
