/**
 * @file
 * CKKS computation-graph IR: the workload representation shared by the
 * functional Executor (runs ops on the real library) and the simulator
 * TraceLowering (emits a sim::Trace) — one definition, two backends.
 *
 * A Graph is an SSA-style DAG: every Value is produced exactly once
 * (by a graph input or by one Node) and carries level + scale metadata
 * that is inferred, and validated, as the graph is built. Levels are
 * exact (they drive the simulator's cost-model lookups and the
 * executor's consistency checks); scales are approximate bookkeeping
 * (the functional library tracks the exact per-ciphertext scale at run
 * time) kept to catch mismatched-operand mistakes at build time.
 *
 * Node kinds mirror the primitive HE ops of Section 2.3 of the paper
 * (the same set sim::HeOpKind schedules) plus one composite:
 * kBootstrap, which the Executor runs via a Bootstrapper and the
 * lowering expands into the full ModRaise/CtS/EvalMod/StC plan.
 *
 * Every per-kind fact lives here once: the op table (op_info: names,
 * operand signature, key class, a fused kind's parts)
 * and the metadata rule (infer_metadata: output level and scale, or
 * the first failed precondition). The builder, the static verifier,
 * the pass pipeline, the Executor's key resolution, the resource
 * analyzer and lower_to_trace all read them.
 */
#pragma once

#include <complex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace bts::runtime {

using Complex = std::complex<double>;

/** Graph-level op kinds: sim::HeOpKind plus the Bootstrap composite
 *  and HSub (an add-cost subtraction the sim models as kHAdd), plus
 *  the composite kinds the pass pipeline (src/runtime/passes/)
 *  introduces — grouped hoisted rotations and fused op pairs. The
 *  composites never appear in builder-authored graphs; lowering
 *  expands them back to the primitive kinds above, so the simulator
 *  trace contract is unchanged. */
enum class OpKind {
    kHMult,     //!< ciphertext x ciphertext (+ relinearization)
    kHRot,      //!< slot rotation (+ key-switch)
    kConj,      //!< slot conjugation (+ key-switch)
    kPMult,     //!< ciphertext x plaintext
    kPAdd,      //!< ciphertext + plaintext
    kHAdd,      //!< ciphertext + ciphertext
    kHSub,      //!< ciphertext - ciphertext (cost-identical to kHAdd)
    kHRescale,  //!< divide by the top prime, dropping one level
    kCMult,     //!< ciphertext x scalar constant
    kCAdd,      //!< ciphertext + scalar constant
    kModRaise,  //!< bootstrap modulus raise (level 0 -> L)
    kBootstrap, //!< full refresh (composite; any level -> usable level)
    // ----- pass-introduced composites -----
    kHRotHoisted,  //!< N rotations of one value, shared decompose+ModUp
    kHMultRescale, //!< fused HMult + HRescale
    kPMultRescale, //!< fused PMult + HRescale
    kCMultRescale, //!< fused CMult + HRescale
    kCMultAdd,     //!< fused CMult + CAdd
};

inline constexpr int kNumOpKinds = 17;

/** The evaluation key (or refresh machinery) an op streams. */
enum class KeyClass {
    kNone,
    kMult,      //!< the relinearization key
    kRotation,  //!< one rotation key per amount (node_rotations)
    kConj,      //!< the conjugation key
    kBootstrap, //!< a bound Bootstrapper
};

/** The node parameters an op reads besides its operands. */
enum class OpParams {
    kNone,
    kRotation,  //!< Node::rot_amount, nonzero
    kRotations, //!< Node::amounts, nonempty and all nonzero; the node
                //!< defines one output per amount
    kConstant,  //!< Node::constant
    kConstants, //!< Node::constant, then Node::constant2
};

/** The primitive pair a fused kind collapses: @p first runs on the
 *  node's operands and @p second consumes its single result. */
struct OpParts
{
    OpKind first;
    OpKind second;
};

/** One OpKind's row of the op table. */
struct OpInfo
{
    OpKind kind;              //!< row i describes kind i
    const char* name;         //!< op_name spelling, e.g. "HRescale"
    const char* builder_name; //!< builder diagnostics, e.g. "hrescale"
    // ----- signature -----
    int ciphers;    //!< ciphertext operands
    int plain_slot; //!< operand slot that takes a plaintext; -1: none
    OpParams params;
    KeyClass key;
    /** Only the pass pipeline emits it (legal to build directly);
     *  lowering expands it back to primitives. */
    bool composite;
    /** The four fused kinds only: the primitives they fuse. */
    std::optional<OpParts> parts;

    /** Operand count: the ciphertexts plus the plaintext, if any. */
    constexpr int
    arity() const
    {
        return ciphers + (plain_slot >= 0 ? 1 : 0);
    }
};

/** @p kind's row of the op table; throws std::logic_error for a value
 *  outside the enumerators. */
const OpInfo& op_info(OpKind kind);

/** Human-readable kind name (never returns null). */
const char* op_name(OpKind kind);

/** @return true if the op streams an evaluation key. */
bool op_needs_evk(OpKind kind);

/** @return true for the composite kinds only the pass pipeline emits
 *  (builder-authored graphs never contain them; lowering expands them
 *  back to primitives). */
bool op_is_composite(OpKind kind);

/**
 * Level geometry + scale granularity the metadata inference needs.
 * For simulator lowering these must match the target CkksInstance; for
 * functional execution they must match the CkksContext/Bootstrapper
 * the graph is bound to.
 */
struct GraphTraits
{
    int max_level = 0;           //!< level a ModRaise raises to (L)
    int bootstrap_out_level = 0; //!< level a Bootstrap refreshes to
    double delta = 1.0;          //!< canonical scale granularity
};

/**
 * A Graph's process-unique identity. Fresh on construction AND on
 * copy/copy-assign (a copy can diverge from the original through
 * further builder calls, so it must not share cached per-graph plans).
 * On move the identity transfers with the structure — and the
 * moved-from side gets a fresh uid, so a moved-from Graph rebuilt with
 * new ops can't alias the destination's cached plans either.
 */
class GraphUid
{
  public:
    GraphUid() : value_(next()) {}
    GraphUid(const GraphUid&) : GraphUid() {}
    GraphUid&
    operator=(const GraphUid&)
    {
        value_ = next();
        return *this;
    }
    GraphUid(GraphUid&& other) noexcept : value_(other.value_)
    {
        other.value_ = next();
    }
    GraphUid&
    operator=(GraphUid&& other) noexcept
    {
        value_ = other.value_;
        other.value_ = next();
        return *this;
    }

    u64 value() const { return value_; }

  private:
    static u64 next();

    u64 value_;
};

/** An SSA value handle (ciphertext or plaintext). */
struct Value
{
    int id = -1;
    bool valid() const { return id >= 0; }
};

/** Per-value metadata. */
struct ValueInfo
{
    bool is_plain = false; //!< plaintext (graph inputs only)
    bool is_input = false; //!< bound at execution time
    int level = 0;
    double scale = 1.0;
    int producer = -1; //!< producing node index; -1 for graph inputs
    int num_uses = 0;  //!< consumer operand slots + output marks
};

/** One graph node. */
struct Node
{
    OpKind kind = OpKind::kHAdd;
    std::vector<int> inputs; //!< value ids (operand order matters)
    int output = -1;         //!< value id this node defines (the first
                             //!< one, for multi-output nodes)
    std::vector<int> outputs; //!< all defined value ids; size >= 1,
                              //!< outputs[0] == output
    int rot_amount = 0;      //!< kHRot only
    std::vector<int> amounts; //!< kHRotHoisted: one per output
    Complex constant{0.0, 0.0};  //!< kCMult / kCAdd / fused-CMult kinds
    Complex constant2{0.0, 0.0}; //!< kCMultAdd: the added constant
};

/** The rotation amounts a kRotation-class node needs keys for:
 *  {rot_amount} for kHRot, amounts for kHRotHoisted, empty otherwise. */
std::span<const int> node_rotations(const Node& n);

/**
 * The metadata rule's verdict for one node: the output level and
 * scale (every output of a multi-output node shares them), or the
 * first failed precondition.
 */
struct MetaResult
{
    int level = 0;
    double scale = 1.0;
    /** Failed precondition: its rule id (null when the node is valid),
     *  the offending operand slot, the message and a fix hint. */
    const char* rule = nullptr;
    int operand = -1;
    std::string message;
    const char* hint = "";

    bool ok() const { return rule == nullptr; }
};

/** The relative operand-scale agreement add, sub and PAdd require. */
inline constexpr double kScaleAgreement = 1e-3;

/**
 * Apply @p kind's metadata rule to its operands' stored metadata
 * (@p operands, one per operand slot, signature already checked) under
 * @p traits. The builder stores the result; the verifier re-applies
 * the rule to stored metadata and compares. Builds no string unless a
 * precondition fails.
 */
MetaResult infer_metadata(OpKind kind,
                          std::span<const ValueInfo* const> operands,
                          const GraphTraits& traits);

/**
 * The computation graph. Build by declaring inputs and appending ops;
 * every builder method is one call into append(), which checks the
 * node against its op-table signature and applies the metadata rule,
 * so malformed programs (rescale below level 0, ModRaise of a
 * non-exhausted ciphertext, plaintext level too low for its consumer)
 * fail at construction, not mid-execution.
 *
 * Nodes are stored in creation order, which is a topological order by
 * construction (operands must already exist).
 */
class Graph
{
  public:
    Graph(std::string name, GraphTraits traits);

    const std::string& name() const { return name_; }
    const GraphTraits& traits() const { return traits_; }
    /** Process-unique graph identity (fresh on copy, preserved on
     *  move). Executors key their per-graph plan caches on this, so a
     *  new Graph reusing a destroyed one's address can never hit a
     *  stale plan. */
    u64 uid() const { return uid_.value(); }

    // ----- inputs -----
    /** Declare a ciphertext input bound at execution time. */
    Value input(int level, double scale);
    /** Declare a plaintext input bound at execution time. */
    Value plain_input(int level, double scale);

    // ----- ops -----
    /** HMult; unequal operand levels align to the lower one. */
    Value hmult(Value a, Value b);
    /** HAdd; unequal operand levels align to the lower one. */
    Value hadd(Value a, Value b);
    /** HSub (a - b); same level/scale rules as hadd. */
    Value hsub(Value a, Value b);
    /** PMult; the plaintext's level must cover the ciphertext's. */
    Value pmult(Value ct, Value pt);
    /** PAdd; same level rule as pmult, scales must agree. */
    Value padd(Value ct, Value pt);
    Value hrot(Value ct, int amount);
    Value conj(Value ct);
    /** HRescale; requires level >= 1. */
    Value hrescale(Value ct);
    /** CMult by a constant encoded at delta (scale grows by delta). */
    Value cmult(Value ct, Complex c);
    Value cmult(Value ct, double c) { return cmult(ct, Complex(c, 0.0)); }
    /** CAdd of a constant (scale unchanged). */
    Value cadd(Value ct, Complex c);
    /** ModRaise; requires level == 0, raises to traits().max_level. */
    Value mod_raise(Value ct);
    /** Bootstrap; accepts any level (remaining levels are discarded —
     *  the Executor drops to level 0 before the refresh, the lowering
     *  expands the same plan either way) and refreshes to
     *  traits().bootstrap_out_level at canonical scale. This is what
     *  lets application graphs refresh mid-circuit the moment the
     *  level budget runs short (the apps' ensure() rules). */
    Value bootstrap(Value ct);

    // ----- composite ops (emitted by the pass pipeline; legal to
    //       build directly, e.g. in tests) -----
    /** Grouped hoisted rotations: one node rotating @p ct by every
     *  amount in @p amounts (all nonzero), sharing one key-switch
     *  decomposition. Returns one value per amount, in order. */
    std::vector<Value> hrot_hoisted(Value ct,
                                    const std::vector<int>& amounts);
    /** Fused HMult+HRescale (operand levels align; requires >= 1). */
    Value hmult_rescale(Value a, Value b);
    /** Fused PMult+HRescale. */
    Value pmult_rescale(Value ct, Value pt);
    /** Fused CMult+HRescale. */
    Value cmult_rescale(Value ct, Complex c);
    /** Fused CMult+CAdd: ct * mul_c + add_c (scale grows by delta). */
    Value cmult_add(Value ct, Complex mul_c, Complex add_c);

    /**
     * The one validating append behind every builder method and the
     * pass pipeline's replay. @p n supplies the kind, operand ids and
     * parameters; its output fields are assigned here, one fresh value
     * per output. Checks the op-table signature, applies
     * infer_metadata and throws the first violation as a
     * single-diagnostic analysis::VerifyError naming the node
     * ("node 231 (hrescale): ..."); on success counts the operand uses
     * and returns the first output.
     */
    Value append(Node n);

    /** Mark @p v as a graph output (kept live; returned by the
     *  executor in mark order). A value can be marked only once. */
    void mark_output(Value v);

    // ----- introspection -----
    std::size_t num_nodes() const { return nodes_.size(); }
    std::size_t num_values() const { return values_.size(); }
    const Node& node(std::size_t i) const { return nodes_[i]; }
    const std::vector<Node>& nodes() const { return nodes_; }
    const ValueInfo& value(int id) const;
    const std::vector<int>& outputs() const { return outputs_; }
    /** Ciphertext/plaintext input value ids, in declaration order. */
    const std::vector<int>& input_ids() const { return input_ids_; }

    /** Distinct rotation amounts used (the keys execution needs),
     *  including every amount of grouped kHRotHoisted nodes. */
    std::vector<int> required_rotations() const;
    bool uses_conjugation() const { return uses_conj_; }
    bool uses_bootstrap() const { return uses_bootstrap_; }
    /** Count of nodes of one kind. */
    int count_kind(OpKind kind) const;
    /** Per-value consumer node lists (index = value id). Computed on
     *  demand; the pass pipeline's use-analysis entry point. */
    std::vector<std::vector<int>> value_users() const;
    /** Canonical one-line-per-node text form (kinds, operands,
     *  amounts, constants, outputs). Two graphs with equal
     *  debug_string() are structurally identical — the idempotence
     *  pin the pass tests compare with. */
    std::string debug_string() const;

    // ----- unchecked mutation hooks -----
    // Bypass every builder invariant: the only legitimate uses are the
    // verifier's mutation tests (which need graphs the builder refuses
    // to construct) and deliberately-corrupting mock passes. Anything
    // touched through these must be re-validated with
    // analysis::verify() before execution.
    ValueInfo& mutable_value(int id) { return values_[id]; }
    Node& mutable_node(std::size_t i) { return nodes_[i]; }
    std::vector<int>& mutable_outputs() { return outputs_; }

  private:
    Value fresh_value(ValueInfo info);

    GraphUid uid_;
    std::string name_;
    GraphTraits traits_;
    std::vector<Node> nodes_;
    std::vector<ValueInfo> values_;
    std::vector<int> outputs_;
    std::vector<int> input_ids_;
    bool uses_conj_ = false;
    bool uses_bootstrap_ = false;
};

} // namespace bts::runtime
