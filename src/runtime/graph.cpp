#include "runtime/graph.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iterator>
#include <sstream>

#include "common/check.h"
#include "runtime/analysis/diagnostic.h"

namespace bts::runtime {

namespace {

using K = OpKind;
using P = OpParams;
using Key = KeyClass;

// The op table: one row per OpKind, in enumerator order. Columns:
// kind, name, builder name, ciphertext operands, plaintext slot,
// parameters, key class, composite, fused parts.
// clang-format off
constexpr OpInfo kOpTable[] = {
    {K::kHMult,        "HMult",        "hmult",         2, -1, P::kNone,      Key::kMult,      false, std::nullopt},
    {K::kHRot,         "HRot",         "hrot",          1, -1, P::kRotation,  Key::kRotation,  false, std::nullopt},
    {K::kConj,         "Conj",         "conj",          1, -1, P::kNone,      Key::kConj,      false, std::nullopt},
    {K::kPMult,        "PMult",        "pmult",         1,  1, P::kNone,      Key::kNone,      false, std::nullopt},
    {K::kPAdd,         "PAdd",         "padd",          1,  1, P::kNone,      Key::kNone,      false, std::nullopt},
    {K::kHAdd,         "HAdd",         "hadd",          2, -1, P::kNone,      Key::kNone,      false, std::nullopt},
    {K::kHSub,         "HSub",         "hsub",          2, -1, P::kNone,      Key::kNone,      false, std::nullopt},
    {K::kHRescale,     "HRescale",     "hrescale",      1, -1, P::kNone,      Key::kNone,      false, std::nullopt},
    {K::kCMult,        "CMult",        "cmult",         1, -1, P::kConstant,  Key::kNone,      false, std::nullopt},
    {K::kCAdd,         "CAdd",         "cadd",          1, -1, P::kConstant,  Key::kNone,      false, std::nullopt},
    {K::kModRaise,     "ModRaise",     "mod_raise",     1, -1, P::kNone,      Key::kNone,      false, std::nullopt},
    {K::kBootstrap,    "Bootstrap",    "bootstrap",     1, -1, P::kNone,      Key::kBootstrap, false, std::nullopt},
    {K::kHRotHoisted,  "HRotHoisted",  "hrot_hoisted",  1, -1, P::kRotations, Key::kRotation,  true,  std::nullopt},
    {K::kHMultRescale, "HMultRescale", "hmult_rescale", 2, -1, P::kNone,      Key::kMult,      true,  OpParts{K::kHMult, K::kHRescale}},
    {K::kPMultRescale, "PMultRescale", "pmult_rescale", 1,  1, P::kNone,      Key::kNone,      true,  OpParts{K::kPMult, K::kHRescale}},
    {K::kCMultRescale, "CMultRescale", "cmult_rescale", 1, -1, P::kConstant,  Key::kNone,      true,  OpParts{K::kCMult, K::kHRescale}},
    {K::kCMultAdd,     "CMultAdd",     "cmult_add",     1, -1, P::kConstants, Key::kNone,      true,  OpParts{K::kCMult, K::kCAdd}},
};
// clang-format on
static_assert(std::size(kOpTable) == kNumOpKinds,
              "the op table needs one row per OpKind");

constexpr bool
rows_in_kind_order()
{
    for (int i = 0; i < kNumOpKinds; ++i) {
        if (kOpTable[i].kind != static_cast<OpKind>(i)) return false;
        if (kOpTable[i].arity() > 2) return false;
    }
    return true;
}
static_assert(rows_in_kind_order(),
              "row i must describe kind i and take at most two operands");

} // namespace

const OpInfo&
op_info(OpKind kind)
{
    const int i = static_cast<int>(kind);
    if (i < 0 || i >= kNumOpKinds) panic("unknown OpKind");
    return kOpTable[i];
}

const char*
op_name(OpKind kind)
{
    return op_info(kind).name;
}

bool
op_needs_evk(OpKind kind)
{
    return op_info(kind).key != KeyClass::kNone;
}

bool
op_is_composite(OpKind kind)
{
    return op_info(kind).composite;
}

std::span<const int>
node_rotations(const Node& n)
{
    switch (op_info(n.kind).params) {
    case OpParams::kRotation: return {&n.rot_amount, 1};
    case OpParams::kRotations: return n.amounts;
    default: return {};
    }
}

namespace {

/** Fail @p r with a precondition: rule id, operand slot, message. */
void
fail(MetaResult& r, const char* rule, int operand, std::string message,
     const char* hint)
{
    r.rule = rule;
    r.operand = operand;
    r.message = std::move(message);
    r.hint = hint;
}

/** Operand scales must be positive and agree to kScaleAgreement
 *  (loose: the evaluator enforces the exact kScaleTolerance at run
 *  time; metadata is approximate bookkeeping). */
bool
scales_agree(MetaResult& r, double a, double b, const char* hint)
{
    if (!(a > 0.0 && b > 0.0)) {
        fail(r, "meta-scale", 1, "operand scales must be positive", hint);
        return false;
    }
    if (!(std::abs(a / b - 1.0) < kScaleAgreement)) {
        std::ostringstream os;
        os << "operand scale metadata differs (" << a << " vs " << b
           << ")";
        fail(r, "scale-mismatch", 1, os.str(), hint);
        return false;
    }
    return true;
}

/** A plaintext operand (slot 1) must sit at or above the ciphertext's
 *  level. */
bool
plain_covers(MetaResult& r, const ValueInfo& ct, const ValueInfo& pt)
{
    if (pt.level >= ct.level) return true;
    fail(r, "meta-level", 1,
         "plaintext level " + std::to_string(pt.level) +
             " below the ciphertext's " + std::to_string(ct.level),
         "encode the plaintext at (or above) the ciphertext level");
    return false;
}

/** A rescale (or fused rescale) needs a prime left to drop: the
 *  graph-level image of TraceBuilder's level-underflow guard. */
bool
can_drop(MetaResult& r, int level)
{
    if (level >= 1) return true;
    fail(r, "level-budget", 0, "operand already at level 0",
         "bootstrap before this point");
    return false;
}

// Forced inline so Graph::append, which builds every node, pays no
// call or result copy for it (graph building is sim-paper's set-up).
[[gnu::always_inline]] inline MetaResult
infer(OpKind kind, std::span<const ValueInfo* const> operands,
      const GraphTraits& t)
{
    MetaResult r;
    const ValueInfo& a = *operands[0];
    // The second operand, for the binary kinds.
    const auto b = [&]() -> const ValueInfo& { return *operands[1]; };
    switch (kind) {
    case OpKind::kHMult:
        r.level = std::min(a.level, b().level);
        r.scale = a.scale * b().scale;
        break;
    case OpKind::kHAdd:
    case OpKind::kHSub:
        if (!scales_agree(r, a.scale, b().scale,
                          "rescale the larger operand first")) {
            break;
        }
        r.level = std::min(a.level, b().level);
        r.scale = a.scale;
        break;
    case OpKind::kPMult:
        if (!plain_covers(r, a, b())) break;
        r.level = a.level;
        r.scale = a.scale * b().scale;
        break;
    case OpKind::kPAdd:
        if (!plain_covers(r, a, b()) ||
            !scales_agree(r, a.scale, b().scale,
                          "encode the plaintext at the ciphertext's "
                          "scale")) {
            break;
        }
        r.level = a.level;
        r.scale = a.scale;
        break;
    case OpKind::kHRot:
    case OpKind::kConj:
    case OpKind::kCAdd:
    case OpKind::kHRotHoisted:
        r.level = a.level;
        r.scale = a.scale;
        break;
    case OpKind::kHRescale:
        if (!can_drop(r, a.level)) break;
        r.level = a.level - 1;
        r.scale = a.scale / t.delta;
        break;
    case OpKind::kCMult:
    case OpKind::kCMultAdd:
        r.level = a.level;
        r.scale = a.scale * t.delta;
        break;
    case OpKind::kModRaise:
        if (a.level != 0) {
            fail(r, "meta-level", 0,
                 "expects an exhausted (level-0) value, got level " +
                     std::to_string(a.level),
                 "");
            break;
        }
        r.level = t.max_level;
        r.scale = a.scale;
        break;
    case OpKind::kBootstrap:
        // Any input level: the refresh discards whatever levels remain
        // (the Executor drops to level 0 first; the lowering expands
        // the identical plan either way). Application graphs rely on
        // this to refresh mid-circuit the moment their level budget
        // runs short.
        r.level = t.bootstrap_out_level;
        r.scale = t.delta; // refresh lands on the canonical scale
        break;
    case OpKind::kHMultRescale:
        r.level = std::min(a.level, b().level);
        if (!can_drop(r, r.level)) break;
        r.level -= 1;
        r.scale = a.scale * b().scale / t.delta;
        break;
    case OpKind::kPMultRescale:
        if (!plain_covers(r, a, b()) || !can_drop(r, a.level)) break;
        r.level = a.level - 1;
        r.scale = a.scale * b().scale / t.delta;
        break;
    case OpKind::kCMultRescale:
        if (!can_drop(r, a.level)) break;
        r.level = a.level - 1;
        r.scale = a.scale; // * delta from the CMult, / delta from the
                           // rescale
        break;
    }
    return r;
}

} // namespace

MetaResult
infer_metadata(OpKind kind, std::span<const ValueInfo* const> operands,
               const GraphTraits& t)
{
    return infer(kind, operands, t);
}

u64
GraphUid::next()
{
    static std::atomic<u64> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

Graph::Graph(std::string name, GraphTraits traits)
    : name_(std::move(name)), traits_(traits)
{
    BTS_CHECK(traits_.max_level >= 0, "graph max_level must be >= 0");
    BTS_CHECK(traits_.bootstrap_out_level >= 0 &&
                  traits_.bootstrap_out_level <= traits_.max_level,
              "bootstrap_out_level outside [0, max_level]");
    BTS_CHECK(traits_.delta > 0, "graph delta must be positive");
}

Value
Graph::fresh_value(ValueInfo info)
{
    const int id = static_cast<int>(values_.size());
    values_.push_back(info);
    return Value{id};
}

Value
Graph::input(int level, double scale)
{
    BTS_CHECK(level >= 0 && level <= traits_.max_level,
              "input level outside [0, max_level]");
    BTS_CHECK(scale > 0, "input scale must be positive");
    ValueInfo info;
    info.is_input = true;
    info.level = level;
    info.scale = scale;
    const Value v = fresh_value(info);
    input_ids_.push_back(v.id);
    return v;
}

Value
Graph::plain_input(int level, double scale)
{
    BTS_CHECK(level >= 0 && level <= traits_.max_level,
              "plain input level outside [0, max_level]");
    BTS_CHECK(scale > 0, "plain input scale must be positive");
    ValueInfo info;
    info.is_plain = true;
    info.is_input = true;
    info.level = level;
    info.scale = scale;
    const Value v = fresh_value(info);
    input_ids_.push_back(v.id);
    return v;
}

namespace {

/** Throw a builder validation failure as the same Diagnostic currency
 *  the static verifier emits (rule id, node index, op kind), so "node
 *  231 (hrescale): ..." reads identically whether it was raised while
 *  building the graph or while analyzing it, and catch sites can
 *  recover the structured form from VerifyError::diagnostics(). */
[[noreturn]] void
throw_node_error(const std::string& graph, std::size_t node_idx,
                 const char* rule, const char* op, std::string msg)
{
    analysis::Diagnostic d;
    d.rule = rule;
    d.severity = analysis::Severity::kError;
    d.node = static_cast<int>(node_idx);
    d.op = op;
    d.message = std::move(msg);
    analysis::throw_diagnostic(graph, std::move(d));
}

} // namespace

Value
Graph::append(Node n)
{
    const OpInfo& op = op_info(n.kind);
    // Every failure names the node being built by its index and the
    // op's builder spelling.
    const auto reject = [&](const char* rule, std::string msg) {
        throw_node_error(name_, nodes_.size(), rule, op.builder_name,
                         std::move(msg));
    };
    if (static_cast<int>(n.inputs.size()) != op.arity()) {
        reject("structure-arity", "takes " + std::to_string(op.arity()) +
                                      " operand(s), got " +
                                      std::to_string(n.inputs.size()));
    }
    std::array<const ValueInfo*, 2> operands{};
    for (std::size_t s = 0; s < n.inputs.size(); ++s) {
        const int id = n.inputs[s];
        if (id < 0 || id >= static_cast<int>(values_.size())) {
            reject("structure-operand",
                   "operand is not a value of this graph");
        }
        const ValueInfo& info = values_[id];
        if (info.is_plain != (static_cast<int>(s) == op.plain_slot)) {
            reject("structure-arity",
                   info.is_plain ? "expected a ciphertext operand, value " +
                                       std::to_string(id) + " is plain"
                                 : "expected a plaintext operand, value " +
                                       std::to_string(id) +
                                       " is a ciphertext");
        }
        operands[s] = &info;
    }
    if (op.params == OpParams::kRotation && n.rot_amount == 0) {
        reject("structure-arity", "rotation amount must be nonzero");
    }
    if (op.params == OpParams::kRotations) {
        if (n.amounts.empty()) {
            reject("structure-arity", "needs at least one rotation amount");
        }
        for (const int r : n.amounts) {
            if (r == 0) {
                reject("structure-arity", "rotation amount must be nonzero");
            }
        }
    }
    MetaResult meta =
        infer(n.kind, std::span(operands.data(), n.inputs.size()), traits_);
    if (!meta.ok()) {
        reject(meta.rule, std::move(meta.message));
    }

    for (const int id : n.inputs) values_[id].num_uses += 1;
    uses_conj_ = uses_conj_ || op.key == KeyClass::kConj;
    uses_bootstrap_ = uses_bootstrap_ || op.key == KeyClass::kBootstrap;
    ValueInfo out;
    out.level = meta.level;
    out.scale = meta.scale;
    out.producer = static_cast<int>(nodes_.size());
    const std::size_t count =
        op.params == OpParams::kRotations ? n.amounts.size() : 1;
    n.outputs.clear();
    n.outputs.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        n.outputs.push_back(fresh_value(out).id);
    }
    n.output = n.outputs[0];
    nodes_.push_back(std::move(n));
    return Value{nodes_.back().output};
}

namespace {

Node
op_node(OpKind kind, std::initializer_list<int> inputs)
{
    Node n;
    n.kind = kind;
    n.inputs = inputs;
    return n;
}

Node
const_node(OpKind kind, Value ct, Complex c, Complex c2 = {})
{
    Node n = op_node(kind, {ct.id});
    n.constant = c;
    n.constant2 = c2;
    return n;
}

} // namespace

Value
Graph::hmult(Value a, Value b)
{
    return append(op_node(OpKind::kHMult, {a.id, b.id}));
}

Value
Graph::hadd(Value a, Value b)
{
    return append(op_node(OpKind::kHAdd, {a.id, b.id}));
}

Value
Graph::hsub(Value a, Value b)
{
    return append(op_node(OpKind::kHSub, {a.id, b.id}));
}

Value
Graph::pmult(Value ct, Value pt)
{
    return append(op_node(OpKind::kPMult, {ct.id, pt.id}));
}

Value
Graph::padd(Value ct, Value pt)
{
    return append(op_node(OpKind::kPAdd, {ct.id, pt.id}));
}

Value
Graph::hrot(Value ct, int amount)
{
    Node n = op_node(OpKind::kHRot, {ct.id});
    n.rot_amount = amount;
    return append(std::move(n));
}

Value
Graph::conj(Value ct)
{
    return append(op_node(OpKind::kConj, {ct.id}));
}

Value
Graph::hrescale(Value ct)
{
    return append(op_node(OpKind::kHRescale, {ct.id}));
}

Value
Graph::cmult(Value ct, Complex c)
{
    return append(const_node(OpKind::kCMult, ct, c));
}

Value
Graph::cadd(Value ct, Complex c)
{
    return append(const_node(OpKind::kCAdd, ct, c));
}

Value
Graph::mod_raise(Value ct)
{
    return append(op_node(OpKind::kModRaise, {ct.id}));
}

Value
Graph::bootstrap(Value ct)
{
    return append(op_node(OpKind::kBootstrap, {ct.id}));
}

std::vector<Value>
Graph::hrot_hoisted(Value ct, const std::vector<int>& amounts)
{
    Node n = op_node(OpKind::kHRotHoisted, {ct.id});
    n.amounts = amounts;
    append(std::move(n));
    const std::vector<int>& ids = nodes_.back().outputs;
    std::vector<Value> outs;
    outs.reserve(ids.size());
    for (const int id : ids) outs.push_back(Value{id});
    return outs;
}

Value
Graph::hmult_rescale(Value a, Value b)
{
    return append(op_node(OpKind::kHMultRescale, {a.id, b.id}));
}

Value
Graph::pmult_rescale(Value ct, Value pt)
{
    return append(op_node(OpKind::kPMultRescale, {ct.id, pt.id}));
}

Value
Graph::cmult_rescale(Value ct, Complex c)
{
    return append(const_node(OpKind::kCMultRescale, ct, c));
}

Value
Graph::cmult_add(Value ct, Complex mul_c, Complex add_c)
{
    return append(const_node(OpKind::kCMultAdd, ct, mul_c, add_c));
}

void
Graph::mark_output(Value v)
{
    BTS_CHECK(v.valid() && v.id < static_cast<int>(values_.size()),
              "mark_output: not a value of this graph");
    BTS_CHECK(!values_[v.id].is_plain,
              "mark_output: outputs must be ciphertexts");
    BTS_CHECK(std::find(outputs_.begin(), outputs_.end(), v.id) ==
                  outputs_.end(),
              "mark_output: value already marked");
    values_[v.id].num_uses += 1; // outputs stay live through execution
    outputs_.push_back(v.id);
}

const ValueInfo&
Graph::value(int id) const
{
    BTS_CHECK(id >= 0 && id < static_cast<int>(values_.size()),
              "value id out of range");
    return values_[id];
}

std::vector<int>
Graph::required_rotations() const
{
    std::vector<int> amounts;
    for (const Node& n : nodes_) {
        const std::span<const int> rots = node_rotations(n);
        amounts.insert(amounts.end(), rots.begin(), rots.end());
    }
    std::sort(amounts.begin(), amounts.end());
    amounts.erase(std::unique(amounts.begin(), amounts.end()),
                  amounts.end());
    return amounts;
}

int
Graph::count_kind(OpKind kind) const
{
    int n = 0;
    for (const Node& node : nodes_) n += (node.kind == kind);
    return n;
}

std::vector<std::vector<int>>
Graph::value_users() const
{
    std::vector<std::vector<int>> users(values_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (const int in : nodes_[i].inputs) {
            users[in].push_back(static_cast<int>(i));
        }
    }
    return users;
}

std::string
Graph::debug_string() const
{
    std::ostringstream oss;
    for (const int id : input_ids_) {
        const ValueInfo& info = values_[id];
        oss << (info.is_plain ? "plain_input" : "input") << " v" << id
            << " L" << info.level << " s" << info.scale << "\n";
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        const OpParams params = op_info(n.kind).params;
        oss << "n" << i << ": " << op_name(n.kind);
        if (params == OpParams::kRotation) oss << " by " << n.rot_amount;
        if (!n.amounts.empty()) {
            oss << " by {";
            for (std::size_t k = 0; k < n.amounts.size(); ++k) {
                oss << (k ? "," : "") << n.amounts[k];
            }
            oss << "}";
        }
        if (params == OpParams::kConstant ||
            params == OpParams::kConstants) {
            oss << " c=(" << n.constant.real() << ","
                << n.constant.imag() << ")";
        }
        if (params == OpParams::kConstants) {
            oss << " c2=(" << n.constant2.real() << ","
                << n.constant2.imag() << ")";
        }
        for (const int in : n.inputs) oss << " v" << in;
        oss << " ->";
        for (const int out : n.outputs) oss << " v" << out;
        oss << "\n";
    }
    oss << "outputs:";
    for (const int id : outputs_) oss << " v" << id;
    oss << "\n";
    return oss.str();
}

} // namespace bts::runtime
