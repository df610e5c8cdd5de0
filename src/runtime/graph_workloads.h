/**
 * @file
 * Graph-API workload definitions.
 *
 * tmult_graph() is the paper's T_mult,a/slot microbenchmark (Eq. 8):
 * the one definition the simulated figures lower (lower_to_trace)
 * and the functional Executor runs.
 *
 * The remaining generators are the serving harness's client scenarios
 * at functional scale: an encrypted dot product (rotation log-tree), a
 * Horner polynomial evaluation, and a bootstrap refresh.
 *
 * tmult_graph and bootstrap_refresh_graph, with the application
 * graphs in runtime/apps/ (HELR, ResNet, sorting), are the paper
 * graphs of runtime/apps/paper.h; golden fixtures in
 * tests/runtime/test_apps_pin.cpp pin their lowered traces op for op
 * on every Table 4 instance.
 */
#pragma once

#include <span>
#include <vector>

#include "hwparams/instance.h"
#include "runtime/graph.h"
#include "runtime/passes/pass_manager.h"

namespace bts {
class Bootstrapper;
class CkksContext;
struct BootstrapConfig;
struct CkksParams;
} // namespace bts

namespace bts::runtime {

/**
 * The functional instance: the bootstrap-capable ring every
 * bootstrapping test, bench, tool and example runs on. N=2^8, dnum 3,
 * a 50-bit q0, 40-bit scale primes, 50-bit special primes, secret
 * Hamming weight 32. Two levels are in use: with
 * functional_boot_config(), L=14 refreshes to level 1 and L=20 to
 * level 7, the level the functional apps (HelrConfig::functional()
 * and its siblings) are sized against.
 *
 * Insecure by design: N / log PQ is 0.3 at L=14 and 0.2 at L=20,
 * against the ~41 that 128-bit security needs in hwparams/security.h's
 * model (the paper's instances use N=2^17). The ring is small so that
 * a bootstrap takes well under a second and every test can afford
 * genuine refreshes.
 *
 * perfbench/src/crypto.cpp and perfbench/src/serve_mix.cpp hold a
 * frozen copy of this instance and its refresh config, which must
 * match until the next benchmark change.
 */
CkksParams functional_params(int max_level, u64 seed);

/**
 * The functional instance's refresh: 64 slots (gap 2), radix-8
 * CtS/StC (2 + 2 levels; radix 4 would spend 3 + 3 and refresh L=14
 * to level 0), and EvalMod over the default K = 12 (9 levels: the
 * cosine series' 6 and 3 double angles).
 */
BootstrapConfig functional_boot_config();

/**
 * The rotation amounts serving @p graphs needs keys for: @p boot's
 * first, when some graph uses_bootstrap(), then each graph's
 * required_rotations() in graph order, every amount once.
 */
std::vector<int> required_rotations(std::span<const Graph* const> graphs,
                                    const Bootstrapper* boot);

/** Graph traits matching a full-scale simulator instance. */
GraphTraits traits_for(const hw::CkksInstance& inst);

/**
 * Graph traits matching a functional context: its max level and
 * scale, refreshing to @p boot's output_level(), or to max_level when
 * no bootstrapper serves the graphs.
 */
GraphTraits traits_for(const CkksContext& ctx,
                       const Bootstrapper* boot = nullptr);

/**
 * Every generator below runs the pass pipeline (runtime/passes/) on
 * the graph it builds before returning it — callers get the fused /
 * hoisted form by default. Pass
 * passes::PassOptions::rescale_only() for the executable-but-
 * unoptimized baseline (the pass-off benchmark arm and the
 * differential tests), or passes::PassOptions::none() for the raw
 * builder-authored form (trace-structure tests only: poly_eval_graph's
 * raw form leaves double-scale operands on constant adds and cannot
 * execute — rescale placement is the pass pipeline's job now).
 */

/** Eq. 8's numerator as a graph: one bootstrap, then HMult + HRescale
 *  down the usable levels. Input 0: the exhausted ciphertext; input 1:
 *  the multiplicand. The rescales stay hand-placed here — the raw
 *  chain's scale bookkeeping would overflow a double at INS-3's 25
 *  usable levels — and the insert-only placement pass honors them. */
Graph tmult_graph(const hw::CkksInstance& inst,
                  const passes::PassOptions& opts = {});

/**
 * Encrypted dot product: slot-wise PMult by a plaintext weight vector
 * (bound at execution), rescale, then a log-tree of 2^k-slot rotations
 * summing @p log_dim strides — every slot ends holding the reduction.
 * Consumes one level; needs rotation keys {1, 2, .., 2^(log_dim-1)}.
 */
Graph dot_product_graph(const GraphTraits& traits, int level, int log_dim,
                        const passes::PassOptions& opts = {});

/**
 * Degree-@p degree polynomial evaluation via Horner's rule with
 * constant coefficients c_j = coeffs[j] (c_0 first): consumes
 * @p degree levels below @p level; inter-op parallelism is nil (a
 * dependence chain), which makes it the serving mix's latency-bound
 * client. Rescales are NOT hand-placed: the waterline pass inserts
 * them (one before every constant add), so the default form matches
 * the historical hand-written chain with the mult+rescale pairs fused.
 */
Graph poly_eval_graph(const GraphTraits& traits, int level,
                      const std::vector<double>& coeffs,
                      const passes::PassOptions& opts = {});

/** An exhausted ciphertext through one Bootstrap node. */
Graph bootstrap_refresh_graph(const GraphTraits& traits,
                              const passes::PassOptions& opts = {});

} // namespace bts::runtime
