#include "runtime/analysis/verifier.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "runtime/analysis/dot.h"

namespace bts::runtime::analysis {

namespace {

/** Relative scale agreement for re-derived vs stored metadata. The
 *  verifier applies the builder's own rule (infer_metadata), so honest
 *  graphs agree to the last bit; the loose bound only exists to keep
 *  the check robust under -ffast-math-style reassoc. */
bool
scales_equal(double a, double b)
{
    return a > 0.0 && b > 0.0 && std::abs(a / b - 1.0) < 1e-9;
}

/**
 * The per-op noise growth model's constants. A ciphertext value carries
 * noise_bits = log2 of its estimated error magnitude; error magnitudes
 * compose by the independent-error (RMS) heuristic standard for CKKS:
 * adds combine as sqrt(ea^2 + eb^2), multiplies take the dominant cross
 * term max(na + sb, nb + sa) of e = a*eb + b*ea. Each constant is a
 * fraction of S = log2(delta), so the model adapts from the paper's
 * 50-bit production scales down to the 40-bit test instances without
 * retuning. docs/ANALYSIS.md derives each one.
 */
constexpr double kFresh = 0.25;        //!< encryption noise
constexpr double kKeySwitch = 0.30;    //!< additive key-switch noise
constexpr double kRescaleFloor = 0.30; //!< rounding floor after rescale
constexpr double kBootstrapOut = 0.45; //!< noise of a refreshed value
constexpr double kWarnHeadroom = 0.15; //!< warn below this budget
/** q0 headroom over the scale prime (60-bit base over 50-bit scale
 *  primes in Table 4): level-0 capacity is kQ0Ratio x scale bits. */
constexpr double kQ0Ratio = 1.2;

class Verifier
{
  public:
    Verifier(const Graph& g, const AnalysisOptions& opts)
        : g_(g), opts_(opts), scale_bits_(std::log2(g.traits().delta))
    {
        result_.values.resize(g.num_values());
    }

    Analysis
    run()
    {
        if (!check_structure()) {
            // Structural corruption: every later analysis walks the
            // value/node cross-links, so stop before they misindex.
            return std::move(result_);
        }
        check_metadata();
        if (opts_.noise) check_noise_and_levels();
        if (opts_.keys) check_keys(*opts_.keys);
        if (opts_.lints) check_lints();
        return std::move(result_);
    }

  private:
    void
    emit(std::string rule, Severity sev, int node, int value,
         std::string message, std::string hint = {})
    {
        Diagnostic d;
        d.rule = std::move(rule);
        d.severity = sev;
        d.node = node;
        if (node >= 0 &&
            node < static_cast<int>(g_.num_nodes())) {
            d.op = op_name(g_.node(static_cast<std::size_t>(node)).kind);
        }
        d.value = value;
        d.message = std::move(message);
        d.hint = std::move(hint);
        result_.diags.push_back(std::move(d));
    }

    bool
    value_ok(int id) const
    {
        return id >= 0 && id < static_cast<int>(g_.num_values());
    }

    // ---------------------------------------------------------------
    // Structure: every cross-link between the node list, the value
    // table and the output list holds. This is the well-formedness
    // contract the pass pipeline must preserve between passes; the two
    // PR 7 ship bugs (dangling ValueInfo reference, double-marked
    // outputs) were violations of exactly these rules.
    // ---------------------------------------------------------------
    bool
    check_structure()
    {
        const std::size_t before = result_.diags.size();
        const int num_nodes = static_cast<int>(g_.num_nodes());

        for (int i = 0; i < num_nodes; ++i) {
            const Node& n = g_.node(static_cast<std::size_t>(i));
            check_node_arity(i, n);
            check_node_operands(i, n);
            check_node_outputs(i, n);
        }

        // Value-side back-links.
        for (int id = 0; id < static_cast<int>(g_.num_values()); ++id) {
            const ValueInfo& info = g_.value(id);
            if (info.is_input) {
                if (info.producer != -1) {
                    emit("structure-producer", Severity::kError, -1, id,
                         "input value claims producer node " +
                             std::to_string(info.producer));
                }
                continue;
            }
            if (info.producer < 0 || info.producer >= num_nodes) {
                emit("structure-producer", Severity::kError, -1, id,
                     "non-input value has producer " +
                         std::to_string(info.producer) +
                         ", node count is " + std::to_string(num_nodes));
                continue;
            }
            const Node& p =
                g_.node(static_cast<std::size_t>(info.producer));
            if (std::find(p.outputs.begin(), p.outputs.end(), id) ==
                p.outputs.end()) {
                emit("structure-producer", Severity::kError,
                     info.producer, id,
                     "value's producer node does not list it as an "
                     "output");
            }
        }

        // Output list: in range, ciphertext, no duplicates.
        std::vector<char> seen(g_.num_values(), 0);
        for (const int id : g_.outputs()) {
            if (!value_ok(id)) {
                emit("structure-producer", Severity::kError, -1, id,
                     "marked output id out of range");
                continue;
            }
            if (g_.value(id).is_plain) {
                emit("structure-producer", Severity::kError, -1, id,
                     "marked output is a plaintext");
            }
            if (seen[id]) {
                emit("structure-producer", Severity::kError, -1, id,
                     "value marked as an output twice");
            }
            seen[id] = 1;
        }

        if (result_.diags.size() != before) return false;
        check_use_counts();
        return result_.diags.size() == before;
    }

    // The structure checks read the op table's signature: operand
    // count, the plaintext slot and the parameters.
    void
    check_node_arity(int i, const Node& n)
    {
        const OpInfo& op = op_info(n.kind);
        const std::size_t want = static_cast<std::size_t>(op.arity());
        if (n.inputs.size() != want) {
            emit("structure-arity", Severity::kError, i, -1,
                 std::string(op.name) + " has " +
                     std::to_string(n.inputs.size()) +
                     " operand(s), expected " + std::to_string(want));
        }
        if (op.params == OpParams::kRotation && n.rot_amount == 0) {
            emit("structure-arity", Severity::kError, i, -1,
                 "rotation amount is zero");
        }
        if (op.params == OpParams::kRotations) {
            if (n.amounts.empty()) {
                emit("structure-arity", Severity::kError, i, -1,
                     "hoisted rotation group has no amounts");
            }
            for (const int r : n.amounts) {
                if (r == 0) {
                    emit("structure-arity", Severity::kError, i, -1,
                         "hoisted rotation amount is zero");
                }
            }
        }
    }

    void
    check_node_operands(int i, const Node& n)
    {
        const int plain_slot = op_info(n.kind).plain_slot;
        for (std::size_t s = 0; s < n.inputs.size(); ++s) {
            const int in = n.inputs[s];
            if (!value_ok(in)) {
                emit("structure-operand", Severity::kError, i, in,
                     "operand id out of range");
                continue;
            }
            const ValueInfo& info = g_.value(in);
            if (!info.is_input && info.producer >= i) {
                emit("structure-operand", Severity::kError, i, in,
                     "operand is defined by node " +
                         std::to_string(info.producer) +
                         ", at or after its use");
            }
            const bool want_plain = static_cast<int>(s) == plain_slot;
            if (info.is_plain != want_plain) {
                emit("structure-arity", Severity::kError, i, in,
                     std::string("operand ") + std::to_string(s) +
                         " is " + (info.is_plain ? "plain" : "cipher") +
                         ", " + op_name(n.kind) + " expects " +
                         (want_plain ? "plain" : "cipher"));
            }
        }
    }

    void
    check_node_outputs(int i, const Node& n)
    {
        if (n.outputs.empty()) {
            emit("structure-producer", Severity::kError, i, -1,
                 "node defines no values");
            return;
        }
        if (n.output != n.outputs[0]) {
            emit("structure-producer", Severity::kError, i, n.output,
                 "node.output disagrees with node.outputs[0]");
        }
        const std::size_t want =
            op_info(n.kind).params == OpParams::kRotations
                ? n.amounts.size()
                : 1;
        if (n.outputs.size() != want) {
            emit("structure-producer", Severity::kError, i, -1,
                 "node defines " + std::to_string(n.outputs.size()) +
                     " values, expected " + std::to_string(want));
        }
        for (const int out : n.outputs) {
            if (!value_ok(out)) {
                emit("structure-producer", Severity::kError, i, out,
                     "output value id out of range");
                continue;
            }
            const ValueInfo& info = g_.value(out);
            if (info.is_input || info.is_plain) {
                emit("structure-producer", Severity::kError, i, out,
                     "node output is marked as an input/plaintext");
            }
            if (info.producer != i) {
                emit("structure-producer", Severity::kError, i, out,
                     "output's stored producer is " +
                         std::to_string(info.producer));
            }
        }
    }

    void
    check_use_counts()
    {
        std::vector<int> uses(g_.num_values(), 0);
        for (std::size_t i = 0; i < g_.num_nodes(); ++i) {
            for (const int in : g_.node(i).inputs) uses[in] += 1;
        }
        for (const int id : g_.outputs()) uses[id] += 1;
        for (int id = 0; id < static_cast<int>(g_.num_values()); ++id) {
            result_.values[id].uses = uses[id];
            if (g_.value(id).num_uses != uses[id]) {
                emit("structure-use-count", Severity::kError,
                     g_.value(id).producer, id,
                     "stored num_uses " +
                         std::to_string(g_.value(id).num_uses) +
                         " != derived " + std::to_string(uses[id]),
                     "the executor frees values after num_uses "
                     "consumers; a wrong count is a use-after-free or "
                     "a leak");
            }
        }
    }

    // ---------------------------------------------------------------
    // Metadata re-inference: apply the builder's rule (infer_metadata)
    // to every node's operands' STORED metadata and flag disagreement
    // with the stored outputs. Local derivation (stored operands, not
    // derived ones) pins the first corrupted link in a chain instead of
    // cascading one bad value into errors on everything downstream; a
    // failed precondition reports itself and derives nothing.
    // ---------------------------------------------------------------
    void
    check_metadata()
    {
        const GraphTraits& t = g_.traits();
        for (const int id : g_.input_ids()) {
            const ValueInfo& info = g_.value(id);
            if (info.level < 0 || info.level > t.max_level) {
                emit("meta-level", Severity::kError, -1, id,
                     "input level " + std::to_string(info.level) +
                         " outside [0, " +
                         std::to_string(t.max_level) + "]");
            }
            if (info.scale <= 0.0) {
                emit("meta-scale", Severity::kError, -1, id,
                     "input scale is not positive");
            }
            result_.values[id].level = info.level;
            result_.values[id].scale = info.scale;
        }
        for (std::size_t i = 0; i < g_.num_nodes(); ++i) {
            check_node_metadata(static_cast<int>(i), g_.node(i));
        }
    }

    void
    check_node_metadata(int i, const Node& n)
    {
        std::array<const ValueInfo*, 2> operands{};
        for (std::size_t s = 0; s < n.inputs.size(); ++s) {
            operands[s] = &g_.value(n.inputs[s]);
        }
        const MetaResult m = infer_metadata(
            n.kind, std::span(operands.data(), n.inputs.size()),
            g_.traits());
        if (!m.ok()) {
            emit(m.rule, Severity::kError, i, n.inputs[m.operand],
                 m.message, m.hint);
            return;
        }
        for (const int out : n.outputs) {
            const ValueInfo& stored = g_.value(out);
            result_.values[out].level = m.level;
            result_.values[out].scale = m.scale;
            if (stored.level != m.level) {
                emit("meta-level", Severity::kError, i, out,
                     "stored level " + std::to_string(stored.level) +
                         ", re-derived " + std::to_string(m.level),
                     "a pass corrupted the metadata; rebuild the graph "
                     "through the builder API");
            }
            if (!scales_equal(stored.scale, m.scale)) {
                emit("meta-scale", Severity::kError, i, out,
                     "stored scale " + std::to_string(stored.scale) +
                         ", re-derived " + std::to_string(m.scale),
                     "a pass corrupted the metadata; rebuild the graph "
                     "through the builder API");
            }
        }
    }

    // ---------------------------------------------------------------
    // Noise-budget estimator + level-budget / bootstrap-placement
    // prediction. Worst-case abstract interpretation: each ciphertext
    // value carries noise_bits = log2 |error|, error magnitudes sum in
    // the linear domain (log_sum), multiplies take the dominant cross
    // term of e = a*eb + b*ea. The transfer functions are documented
    // constant-by-constant in docs/ANALYSIS.md. Uses stored metadata
    // (already validated by check_metadata) so a level corruption
    // doesn't double-report.
    // ---------------------------------------------------------------

    /** Compose two error magnitudes given in bits. Independent-error
     *  (RMS) composition — sqrt(ea^2 + eb^2) in the linear domain —
     *  the standard CKKS heuristic: fully-correlated linear summation
     *  overestimates deep inner-product trees by their full depth and
     *  would flag the paper's own Table 5/6 schedules as broken. A
     *  balanced add tree grows 0.5 bits per level under RMS. */
    static double
    log_sum(double a, double b)
    {
        if (a < b) std::swap(a, b);
        return a + 0.5 * std::log2(1.0 + std::exp2(2.0 * (b - a)));
    }

    void
    check_noise_and_levels()
    {
        const double S = scale_bits_;
        std::vector<double> noise(g_.num_values(), 0.0);

        for (const int id : g_.input_ids()) {
            if (!g_.value(id).is_plain) noise[id] = kFresh * S;
            note_value(id, noise[id]);
        }
        for (std::size_t i = 0; i < g_.num_nodes(); ++i) {
            const Node& n = g_.node(i);
            const auto nb = [&](std::size_t s) {
                return noise[n.inputs[s]];
            };
            const auto sbits = [&](std::size_t s) {
                return std::log2(g_.value(n.inputs[s]).scale);
            };
            double out = 0.0;
            switch (n.kind) {
            case OpKind::kHAdd:
            case OpKind::kHSub:
                out = log_sum(nb(0), nb(1));
                break;
            case OpKind::kPAdd: // the plaintext operand is noiseless
            case OpKind::kCAdd:
                out = nb(0);
                break;
            case OpKind::kHMult:
                out = log_sum(std::max(nb(0) + sbits(1),
                                       nb(1) + sbits(0)),
                              kKeySwitch * S);
                break;
            case OpKind::kPMult:
                out = nb(0) + sbits(1);
                break;
            case OpKind::kCMult:
            case OpKind::kCMultAdd:
                out = nb(0) + S; // constants are encoded at delta
                break;
            case OpKind::kHRot:
            case OpKind::kConj:
            case OpKind::kHRotHoisted:
                out = log_sum(nb(0), kKeySwitch * S);
                break;
            case OpKind::kHRescale:
                out = std::max(nb(0) - S, kRescaleFloor * S);
                break;
            case OpKind::kModRaise: out = nb(0); break;
            case OpKind::kBootstrap: out = kBootstrapOut * S; break;
            case OpKind::kHMultRescale:
                out = std::max(log_sum(std::max(nb(0) + sbits(1),
                                                nb(1) + sbits(0)),
                                       kKeySwitch * S) -
                                   S,
                               kRescaleFloor * S);
                break;
            case OpKind::kPMultRescale:
                out = std::max(nb(0) + sbits(1) - S,
                               kRescaleFloor * S);
                break;
            case OpKind::kCMultRescale:
                out = std::max(nb(0), kRescaleFloor * S);
                break;
            }
            for (const int o : n.outputs) {
                noise[o] = out;
                note_value(o, out);
                check_budgets(static_cast<int>(i), o, out);
            }
            if (n.kind == OpKind::kBootstrap) {
                check_bootstrap_placement(static_cast<int>(i), n);
            }
        }
        // Input values face the same budget rules (a declared input
        // whose scale cannot fit its level is unbindable).
        for (const int id : g_.input_ids()) {
            if (!g_.value(id).is_plain) check_budgets(-1, id, noise[id]);
        }
    }

    void
    note_value(int id, double noise_bits)
    {
        result_.values[id].noise_bits = noise_bits;
        result_.values[id].budget_bits =
            std::log2(g_.value(id).scale) - noise_bits;
    }

    void
    check_budgets(int node, int id, double noise_bits)
    {
        const double S = scale_bits_;
        const ValueInfo& info = g_.value(id);
        const double sbits = std::log2(info.scale);

        // Level budget: a value at k x the canonical scale owes k - 1
        // rescales before it can be consumed at canonical scale; with
        // fewer levels left, no bootstrap can ever be reached.
        const int drops = std::max(
            0, static_cast<int>(std::lround(sbits / S)) - 1);
        if (drops > info.level) {
            emit("level-budget", Severity::kError, node, id,
                 "value at scale delta^" + std::to_string(drops + 1) +
                     " owes " + std::to_string(drops) +
                     " rescale(s) but only " +
                     std::to_string(info.level) + " level(s) remain",
                 "bootstrap earlier or rescale between the "
                 "multiplications");
            return;
        }
        // Modulus capacity: scale must stay below q0 * delta^level.
        if (sbits > (kQ0Ratio + info.level) * S) {
            emit("level-budget", Severity::kError, node, id,
                 "scale (2^" + std::to_string(sbits) +
                     ") exceeds the level-" +
                     std::to_string(info.level) + " modulus capacity",
                 "rescale or bootstrap before this point");
            return;
        }
        const double budget = sbits - noise_bits;
        if (budget <= 0.0) {
            emit("noise-budget", Severity::kError, node, id,
                 "worst-case noise (2^" + std::to_string(noise_bits) +
                     ") consumes the whole precision budget before "
                     "this value's bootstrap",
                 "bootstrap earlier or shorten the add chain");
        } else if (budget < kWarnHeadroom * S) {
            emit("noise-budget", Severity::kWarning, node, id,
                 "only " + std::to_string(budget) +
                     " precision bits of headroom left "
                     "(worst-case noise model)",
                 "consider bootstrapping earlier");
        }
    }

    void
    check_bootstrap_placement(int i, const Node& n)
    {
        const int boot_out = g_.traits().bootstrap_out_level;
        const int in_level = g_.value(n.inputs[0]).level;
        if (boot_out > 0 &&
            static_cast<double>(in_level) > 0.75 * boot_out) {
            emit("bootstrap-placement", Severity::kWarning, i,
                 n.inputs[0],
                 "bootstrap discards " + std::to_string(in_level) +
                     " remaining level(s) of a " +
                     std::to_string(boot_out) + "-level budget",
                 "spend the remaining levels first, or drop the "
                 "redundant refresh");
        }
    }

    // ---------------------------------------------------------------
    // Required evaluation keys vs the registered key set.
    // ---------------------------------------------------------------
    void
    check_keys(const KeySet& keys)
    {
        int first_mult = -1, first_conj = -1, first_boot = -1;
        std::set<int> missing_rots;
        int first_missing_rot = -1;
        for (std::size_t i = 0; i < g_.num_nodes(); ++i) {
            const Node& n = g_.node(i);
            const int node = static_cast<int>(i);
            switch (op_info(n.kind).key) {
            case KeyClass::kNone: break;
            case KeyClass::kMult:
                if (first_mult < 0) first_mult = node;
                break;
            case KeyClass::kConj:
                if (first_conj < 0) first_conj = node;
                break;
            case KeyClass::kBootstrap:
                if (first_boot < 0) first_boot = node;
                break;
            case KeyClass::kRotation:
                for (const int r : node_rotations(n)) {
                    if (!keys.rotations.count(r)) {
                        missing_rots.insert(r);
                        if (first_missing_rot < 0) {
                            first_missing_rot = node;
                        }
                    }
                }
                break;
            }
        }
        if (first_mult >= 0 && !keys.mult) {
            emit("missing-mult-key", Severity::kError, first_mult, -1,
                 "graph multiplies ciphertexts but the key set has no "
                 "relinearization key",
                 "register the multiplication key with the server");
        }
        if (first_conj >= 0 && !keys.conj) {
            emit("missing-conj-key", Severity::kError, first_conj, -1,
                 "graph conjugates but the key set has no conjugation "
                 "key",
                 "generate the conjugation key");
        }
        if (first_boot >= 0 && !keys.bootstrap) {
            emit("missing-bootstrapper", Severity::kError, first_boot,
                 -1, "graph bootstraps but no bootstrapper is bound",
                 "construct the server with a Bootstrapper");
        } else if (first_boot >= 0 &&
                   *keys.bootstrap != g_.traits().bootstrap_out_level) {
            emit("bootstrap-level-mismatch", Severity::kError, first_boot,
                 -1,
                 "graph declares bootstrap_out_level " +
                     std::to_string(g_.traits().bootstrap_out_level) +
                     " but the bound bootstrapper refreshes to level " +
                     std::to_string(*keys.bootstrap),
                 "build the graph with traits_for(ctx, &bootstrapper)");
        }
        if (!missing_rots.empty()) {
            std::ostringstream os;
            os << "required rotation key(s) missing:";
            for (const int r : missing_rots) os << " " << r;
            emit("missing-rotation-key", Severity::kError,
                 first_missing_rot, -1, os.str(),
                 "generate rotation keys for every amount in "
                 "Graph::required_rotations()");
        }
    }

    // ---------------------------------------------------------------
    // Lint rules.
    // ---------------------------------------------------------------
    void
    check_lints()
    {
        if (g_.outputs().empty()) {
            emit("no-outputs", Severity::kWarning, -1, -1,
                 "graph marks no outputs; execution returns nothing",
                 "mark_output the results that matter");
        }
        for (const int id : g_.input_ids()) {
            if (result_.values[id].uses == 0) {
                emit("unused-input", Severity::kWarning, -1, id,
                     "declared input is never consumed",
                     "drop the declaration (callers must still bind "
                     "unused inputs)");
            }
        }
        // dead-node: reachability to marked outputs, the DVE rule.
        std::vector<char> live(g_.num_values(), 0);
        for (const int id : g_.outputs()) live[id] = 1;
        for (std::size_t i = g_.num_nodes(); i-- > 0;) {
            const Node& n = g_.node(i);
            bool l = false;
            for (const int o : n.outputs) l = l || live[o];
            if (l) {
                for (const int in : n.inputs) live[in] = 1;
            } else {
                emit("dead-node", Severity::kWarning,
                     static_cast<int>(i), n.output,
                     "no marked output depends on this node",
                     "run dead-value elimination, or mark the result");
            }
        }
        // rescale-below-waterline: rescaling a value that is not at
        // double scale drops the result below the canonical scale.
        const double waterline =
            g_.traits().delta * g_.traits().delta * 0.5;
        for (std::size_t i = 0; i < g_.num_nodes(); ++i) {
            const Node& n = g_.node(i);
            if (n.kind != OpKind::kHRescale) continue;
            if (g_.value(n.inputs[0]).scale < waterline) {
                emit("rescale-below-waterline", Severity::kWarning,
                     static_cast<int>(i), n.inputs[0],
                     "rescale of a canonical-scale value burns a level "
                     "and drops the scale below delta",
                     "remove the rescale (the waterline pass places "
                     "the needed ones)");
            }
        }
    }

    const Graph& g_;
    const AnalysisOptions& opts_;
    const double scale_bits_;
    Analysis result_;
};

} // namespace

Analysis
analyze(const Graph& g, const AnalysisOptions& opts)
{
    return Verifier(g, opts).run();
}

std::vector<Diagnostic>
verify(const Graph& g, const AnalysisOptions& opts)
{
    return analyze(g, opts).diags;
}

void
verify_or_throw(const Graph& g, const AnalysisOptions& opts)
{
    Analysis a = analyze(g, opts);
    if (has_errors(a.diags)) {
        throw VerifyError(g.name(), std::move(a.diags));
    }
}

std::string
to_annotated_dot(const Graph& g, const Analysis& a)
{
    // Worst diagnostic severity per node, for the tint.
    std::vector<int> worst(g.num_nodes(), -1);
    for (const Diagnostic& d : a.diags) {
        if (d.node >= 0 && d.node < static_cast<int>(g.num_nodes())) {
            worst[d.node] =
                std::max(worst[d.node], static_cast<int>(d.severity));
        }
    }
    const auto facts_label = [&](std::ostream& label, int id) {
        if (id < 0 || id >= static_cast<int>(a.values.size())) return;
        const ValueFacts& f = a.values[id];
        label << "\\nL" << f.level << " noise=" << std::lround(f.noise_bits)
              << "b budget=" << std::lround(f.budget_bits) << "b";
    };

    DotView view;
    view.input_label = [&](std::ostream& label, int id) {
        if (!g.value(id).is_plain) facts_label(label, id);
    };
    view.node_label = [&](std::ostream& label, std::size_t i) {
        facts_label(label, g.node(i).output);
    };
    view.node_fill = [&](std::size_t i) -> const char* {
        if (worst[i] < 0) return nullptr;
        return worst[i] == static_cast<int>(Severity::kError) ? "lightcoral"
                                                              : "khaki";
    };
    return render_dot(g, view);
}

} // namespace bts::runtime::analysis
