/**
 * @file
 * Static graph verifier: abstract interpretation of level / scale /
 * noise over the runtime IR, plus the lint-rule catalog.
 *
 * BTS builds everything on tight static budgets — level consumption
 * per op, rescale placement, bootstrap timing are all decided before
 * execution — so a bad graph should be rejected at registration time
 * with a diagnostic, not discovered as a worker-thread exception under
 * load. analyze() re-derives every value's metadata from the graph
 * structure alone — applying the builder's own rule, infer_metadata
 * (runtime/graph.h), to each node's stored operand metadata — and
 * checks it against what the builder stored (catching pass-manager
 * corruption by construction); the structure checks read the same op
 * table's signatures and the key check its key classes. It runs a
 * worst-case noise-budget estimator over the dataflow, checks the
 * evaluation-key contract, predicts level-budget exhaustion, and
 * applies the lint rules. Rule catalog, severities and the noise
 * model's constants are documented in docs/ANALYSIS.md.
 *
 * Rule ids (stable; the mutation tests pin one fixture per rule):
 *   structure-operand   operand ids out of range / defined after use
 *   structure-producer  value<->node cross-links inconsistent
 *   structure-arity     operand count or cipher/plain signature wrong
 *   structure-use-count stored num_uses != derived consumer count
 *   meta-level          stored level != re-derived level
 *   meta-scale          stored scale != re-derived scale
 *   scale-mismatch      add/sub operands at visibly different scales
 *   level-budget        rescale of a level-0 operand, or a value needs
 *                       more rescale levels than remain
 *   noise-budget        worst-case noise exhausts the precision budget
 *   missing-mult-key    graph multiplies, key set has no mult key
 *   missing-rotation-key  required rotation amount not in the key set
 *   missing-conj-key    graph conjugates without a conjugation key
 *   missing-bootstrapper  graph bootstraps without a bootstrapper
 *   bootstrap-level-mismatch  the bound bootstrapper refreshes to a
 *                       level other than the graph's bootstrap_out_level
 *   bootstrap-placement bootstrap discards a large remaining budget
 *   rescale-below-waterline  rescale of an already-canonical scale
 *   unused-input        declared input no node consumes
 *   dead-node           node whose results reach no marked output
 *   no-outputs          graph has no marked outputs
 */
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "runtime/analysis/diagnostic.h"
#include "runtime/graph.h"

namespace bts::runtime::analysis {

/** The evaluation-key material a graph's execution environment holds;
 *  checked against the ops the graph actually uses. */
struct KeySet
{
    bool mult = false;
    bool conj = false;
    /** The bound bootstrapper's refresh level; empty when none is. */
    std::optional<int> bootstrap;
    std::set<int> rotations;
};

/** Which rule families run besides structure and metadata, which
 *  always run: every later rule walks the cross-links they check. */
struct AnalysisOptions
{
    bool noise = true; //!< noise-budget estimator + level budgets
    bool lints = true; //!< unused-input / dead-node / waterline...
    /** When set, the graph's required evks are checked against it. */
    std::optional<KeySet> keys;

    /** The well-formedness subset the pass pipeline runs between
     *  passes: structure + metadata, no noise/lints (mid-pipeline
     *  graphs legitimately carry dead nodes before DVE and unshared
     *  rescales before fusion). */
    static AnalysisOptions
    wellformed()
    {
        AnalysisOptions o;
        o.noise = false;
        o.lints = false;
        return o;
    }
};

/** Per-value facts the abstract interpretation derives; the lint
 *  tool's annotated DOT renders them next to each node. */
struct ValueFacts
{
    int level = 0;          //!< re-derived level
    double scale = 1.0;     //!< re-derived scale
    double noise_bits = 0;  //!< worst-case log2 |error|
    double budget_bits = 0; //!< scale_bits - noise_bits
    int uses = 0;           //!< derived consumer slots + output marks
};

/** analyze() result: diagnostics plus the derived per-value facts
 *  (facts are only meaningful when no structure errors were found). */
struct Analysis
{
    std::vector<Diagnostic> diags;
    std::vector<ValueFacts> values;

    bool ok() const { return !has_errors(diags); }
};

/** Run every enabled rule over @p g. Never throws on a bad graph —
 *  findings come back as diagnostics; structural corruption degrades
 *  later analyses gracefully instead of crashing them. */
Analysis analyze(const Graph& g, const AnalysisOptions& opts = {});

/** analyze() and return just the findings. */
std::vector<Diagnostic> verify(const Graph& g,
                               const AnalysisOptions& opts = {});

/** analyze(); throw VerifyError carrying every finding if any is an
 *  error. The GraphServer::register_graph rejection path. */
void verify_or_throw(const Graph& g, const AnalysisOptions& opts = {});

/** Graphviz DOT of @p g annotated with the analysis: every node shows
 *  its re-derived level and worst-case noise/budget bits, and nodes
 *  implicated in a diagnostic are tinted by severity. */
std::string to_annotated_dot(const Graph& g, const Analysis& a);

} // namespace bts::runtime::analysis
