/**
 * @file
 * Graph-compiler pass pipeline: rewrites a validated runtime Graph
 * into an equivalent optimized Graph (same decrypt result, bit-exact
 * on the functional Executor) that restructures the dataflow the way
 * BTS restructures it on-chip — shared key-switch decompositions
 * across rotations, fused op pairs — so every workload inherits the
 * kernel-level wins automatically instead of paying a decomposition
 * per rotation and one evaluator call per op of a fusable pair.
 * Every graph edge carries canonical residues; unreduced residues
 * stay inside the kernels that produce and consume them.
 *
 * Pass catalog (run in this order; each is individually gateable):
 *
 *  1. rescale placement — the waterline rule: defer rescales through
 *     scale-preserving ops and insert ONE shared HRescale immediately
 *     before the consumers that need a reduced-scale operand. The pass
 *     is insert-only: hand-placed rescales are authoritative when
 *     legal, so a conformant graph passes through untouched.
 *  2. dead-value elimination — drop nodes whose results can never
 *     reach a marked output.
 *  3. rotation-hoisting CSE — rotations of the same value collapse
 *     into one kHRotHoisted node sharing a single decompose+ModUp
 *     (duplicate amounts dedupe into one output).
 *  4. fusion — HMult+HRescale, PMult+HRescale, CMult+HRescale and
 *     CMult+CAdd pairs collapse into single fused nodes the Executor
 *     dispatches as one evaluator call.
 *
 * Legality rules are documented in docs/PASSES.md.
 */
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/graph.h"

namespace bts::runtime::passes {

/** A caller-supplied in-place rewrite appended after the builtin
 *  passes (in order). Under inter-pass verification each custom pass
 *  is followed by the same well-formedness check the builtin ones get,
 *  and a corrupting pass is reported BY NAME — the hook the pipeline's
 *  regression tests use to prove the verifier catches pass bugs. */
struct CustomPass
{
    std::string name;
    std::function<void(Graph&)> run;
};

/** Inter-pass verification policy. */
enum class VerifyMode {
    kAuto, //!< on in Debug builds or when BTS_DEBUG is in the env
    kOn,
    kOff,
};

/** Which passes run. Default: everything on. */
struct PassOptions
{
    bool place_rescales = true;
    bool eliminate_dead = true;
    bool group_rotations = true;
    bool fuse = true;
    /** Run analysis::AnalysisOptions::wellformed() over the graph
     *  after every pass, panicking with the offending pass's name on
     *  the first error — turning a silent IR corruption (the PR 7
     *  dangling-ValueInfo and double-marked-output bugs) into an
     *  immediate named failure. */
    VerifyMode verify = VerifyMode::kAuto;
    /** Extra in-place passes run after the builtin pipeline. */
    std::vector<CustomPass> custom_passes;

    /** Everything off: optimize() degenerates to a structural copy. */
    static PassOptions
    none()
    {
        PassOptions o;
        o.place_rescales = o.eliminate_dead = o.group_rotations = o.fuse =
            false;
        return o;
    }

    /** Only automatic rescale placement — the minimum that makes a
     *  builder graph without hand-placed rescales executable. */
    static PassOptions
    rescale_only()
    {
        PassOptions o = none();
        o.place_rescales = true;
        return o;
    }
};

/** Aggregate pass statistics for one optimize() call. */
struct PassStats
{
    std::size_t rescales_inserted = 0; //!< waterline HRescales added
    std::size_t nodes_eliminated = 0;  //!< DVE + rotation-CSE dedupe
    std::size_t rotations_grouped = 0; //!< kHRot folded into groups
    std::size_t ops_fused = 0;         //!< node pairs collapsed
};

/** optimize() result: the rewritten graph plus the value-id remap
 *  (old id -> new id; -1 for values that no longer exist, e.g. dead
 *  values or fused-away intermediates). Callers holding Value handles
 *  into the original graph — application structs keeping input ids,
 *  bindings — translate them through the map. */
struct OptimizeResult
{
    Graph graph;
    PassStats stats;
    std::vector<int> value_map;

    /** Translate an original-graph value handle. */
    Value
    remap(Value v) const
    {
        return Value{v.valid() ? value_map[v.id] : -1};
    }
};

/** Runs the pass pipeline. Stateless; cheap to construct. */
class PassManager
{
  public:
    explicit PassManager(PassOptions opts = {}) : opts_(opts) {}

    /** Rewrite @p g. The input graph is untouched; the result is a new
     *  graph (fresh uid, so executors plan it independently).
     *  Idempotent: optimizing an already-optimized graph returns a
     *  structurally identical one. */
    OptimizeResult optimize(const Graph& g) const;

  private:
    PassOptions opts_;
};

} // namespace bts::runtime::passes
