/**
 * @file
 * HELR logistic-regression training as a runtime graph (Table 5 app).
 *
 * One training iteration over `data_cts` packed feature plaintexts:
 *
 *   u   = sum_c <w, X_c>        PMult + rotation log-tree inner products
 *   s   = 0.5 + c1 u + c3 u^3   degree-3 minimax sigmoid
 *   w  += s * G                 gradient step (G = lr * batch-mean
 *                               feature plaintext, lr pre-folded)
 *
 * which spends kHelrIterLevels multiplicative levels; the builder
 * inserts a Bootstrap whenever the weights' level budget runs short
 * (level < kHelrIterLevels + 1). The paper() configuration is Table 5's
 * circuit: its lowered trace is pinned by a golden fixture in
 * tests/runtime/test_apps_pin.cpp.
 *
 * Packing: slot j of the weight ciphertext holds w_j; the rotation
 * tree sums windows of 2^log_features slots, so with log_features ==
 * log2(slots) every slot of u carries the full inner product.
 */
#pragma once

#include <vector>

#include "runtime/graph.h"

namespace bts::runtime::apps {

/** Levels one HELR iteration consumes. */
inline constexpr int kHelrIterLevels = 5;

struct HelrConfig
{
    int iterations = 30;
    int data_cts = 3;     //!< packed feature plaintexts per batch
    int log_features = 8; //!< rotation-tree depth (2^k-slot windows)
    double c1 = 0.15012;  //!< sigmoid linear coefficient
    double c3 = -0.001593; //!< sigmoid cubic coefficient
    /** Run the pass pipeline (runtime/passes/) on the built graph; the
     *  returned handles are already remapped. The simulated figures
     *  and the golden trace fixtures set this false — they price the
     *  raw builder form, which the passes rewrite (fused kinds, grouped
     *  rotations) without changing what it computes. */
    bool optimize = true;

    /** Table 5 scale: 30 iterations of batch-1024 training. */
    static HelrConfig paper();
    /** Small functional scale for executor tests and benches
     *  (full-slot reduction on a 64-slot test instance). */
    static HelrConfig functional();
};

/** The built graph plus the input handles a caller must bind. */
struct HelrApp
{
    Graph graph;
    Value weights;           //!< ct input @ traits.bootstrap_out_level
    std::vector<Value> data; //!< plaintext X_c, reused every iteration
    Value grad_data;         //!< plaintext G = lr * batch-mean features
};

/** Build the training graph. Throws std::invalid_argument when the
 *  instance's usable levels cannot fit one iteration (level-budget
 *  exhaustion is a build-time error, never a bad decrypt). */
HelrApp build_helr(const HelrConfig& cfg, const GraphTraits& traits);

} // namespace bts::runtime::apps
