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

#include <vector>

#include "hwparams/instance.h"
#include "runtime/graph.h"
#include "runtime/passes/pass_manager.h"

namespace bts {
class Bootstrapper;
class CkksContext;
} // namespace bts

namespace bts::runtime {

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
 * hoisted / lazy-annotated form by default. Pass
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
