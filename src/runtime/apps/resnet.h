/**
 * @file
 * ResNet-20-style packed-convolution inference as a runtime graph
 * (Table 6 app) — the serving harness's encrypted-inference scenario.
 *
 * Per layer (channel packing in the style of [50]):
 *   - conv_steps x: `conv_taps` rotated taps, each PMult'd by a weight
 *     plaintext, summed as a product tree (all taps at delta^2), one
 *     rescale — convolution-as-LinearTransform, 1 level per step;
 *   - bn_steps x: folded BatchNorm scalar multiply-add, 1 level each;
 *   - relu_steps x: squaring-dominated polynomial activation
 *     (act <- act^2 [+ shift]), 1 level each;
 * then a rotation log-tree average pool and a final FC PMult.
 *
 * The builder inserts a Bootstrap whenever the level budget runs
 * short (ensure(): the next burst's levels + 1 no longer fit). The
 * paper() configuration is Table 6's circuit: its lowered trace is
 * pinned by a golden fixture in tests/runtime/test_apps_pin.cpp, and
 * its bootstrap counts track the paper's 53/22/19.
 */
#pragma once

#include <vector>

#include "runtime/graph.h"

namespace bts::runtime::apps {

struct ResnetConfig
{
    int layers = 20;
    int conv_steps = 3;  //!< conv bursts per layer, 1 level each
    int bn_steps = 2;    //!< folded-BN multiply-adds per layer
    int relu_steps = 14; //!< activation-polynomial squarings per layer
    int pool_rots = 6;   //!< final pooling tree depth
    int conv_taps = 6;   //!< rotated taps per conv burst
    double bn_scale = 0.9;
    double bn_shift = 0.01;
    double relu_shift = 0.2; //!< CAdd on even relu steps
    /** Run the pass pipeline on the built graph (handles remapped);
     *  the simulated figures and golden fixtures set this false. */
    bool optimize = true;

    /** Table 6 scale: 20 layers on one encrypted image. */
    static ResnetConfig paper();
    /** Small functional scale with contractive dynamics (activations
     *  stay in [0, 0.5] so repeated squaring cannot blow up). */
    static ResnetConfig functional();
};

struct ResnetApp
{
    Graph graph;
    Value act; //!< ct input @ traits.bootstrap_out_level
    /** Per-layer conv tap weight plaintexts [layer][tap], shared by
     *  that layer's conv steps. */
    std::vector<std::vector<Value>> taps;
    Value pool_weights; //!< final FC plaintext
    /** Each layer's output activation, marked as a graph output ahead
     *  of the final logits — this is what gives the documented
     *  per-layer max |HE - plain| accuracy column its data. */
    std::vector<Value> layer_outputs;
};

/** Build the inference graph; throws std::invalid_argument when even
 *  one 1-level burst cannot fit the refreshed budget. */
ResnetApp build_resnet(const ResnetConfig& cfg, const GraphTraits& traits);

} // namespace bts::runtime::apps
