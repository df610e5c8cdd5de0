#include "runtime/passes/pass_manager.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "common/check.h"
#include "runtime/analysis/verifier.h"

namespace bts::runtime::passes {

namespace {

/** One pass's rewrite product: the new graph plus old-id -> new-id. */
struct Rewrite
{
    Graph graph;
    std::vector<int> map;
};

/**
 * Replay driver: walks @p g in value-creation order (the order the
 * original builder calls ran in, so input declarations interleave with
 * node outputs exactly as they did) re-declaring inputs verbatim and
 * handing each node, once, to @p emit_node. The callback appends
 * whatever it wants to @p out and fills map entries for every value
 * the original node defined (-1 for values it eliminates). Output
 * marks are replayed at the end.
 */
template <typename EmitNode>
Rewrite
replay(const Graph& g, EmitNode&& emit_node)
{
    Rewrite rw{Graph(g.name(), g.traits()),
               std::vector<int>(g.num_values(), -1)};
    std::vector<char> node_done(g.num_nodes(), 0);
    for (std::size_t id = 0; id < g.num_values(); ++id) {
        const ValueInfo& info = g.value(static_cast<int>(id));
        if (info.is_input) {
            const Value v =
                info.is_plain
                    ? rw.graph.plain_input(info.level, info.scale)
                    : rw.graph.input(info.level, info.scale);
            rw.map[id] = v.id;
            continue;
        }
        const std::size_t producer =
            static_cast<std::size_t>(info.producer);
        if (node_done[producer]) continue;
        node_done[producer] = 1;
        emit_node(rw.graph, producer, rw.map);
    }
    for (const int id : g.outputs()) {
        BTS_ASSERT(rw.map[id] >= 0,
                   "pass eliminated a marked output value");
        rw.graph.mark_output(Value{rw.map[id]});
    }
    return rw;
}

/** A copy of @p n with its operands translated through @p map. */
Node
remapped(const Node& n, const std::vector<int>& map)
{
    Node copy = n;
    for (int& in : copy.inputs) {
        in = map[in];
        BTS_ASSERT(in >= 0, "operand of a live node was eliminated");
    }
    return copy;
}

/** Append @p copy (operands already translated) through the validating
 *  builder and map @p n's outputs to the new node's, in order. */
void
emit(Graph& out, Node copy, const Node& n, std::vector<int>& map)
{
    out.append(std::move(copy));
    const std::vector<int>& made = out.nodes().back().outputs;
    for (std::size_t k = 0; k < n.outputs.size(); ++k) {
        map[n.outputs[k]] = made[k];
    }
}

/** Re-emit node @p idx of @p g unchanged. */
void
emit_same(Graph& out, const Graph& g, std::size_t idx,
          std::vector<int>& map)
{
    const Node& n = g.node(idx);
    emit(out, remapped(n, map), n, map);
}

// --------------------------------------------------------------------
// Pass 1: automatic rescale placement (the waterline rule).
//
// Insert-only: whenever an operand of a reduced-scale-requiring
// consumer (multiplications, constant/plaintext adds, bootstrap)
// still carries a double scale (>= delta^2), insert one HRescale and
// share it across every such consumer of that value. A graph whose
// hand-placed rescales already satisfy the rule replays unchanged, so
// hand placements stay authoritative — the pass exists so builders
// can stop writing them at all.
// --------------------------------------------------------------------

/** The waterline rule's consumers: ops that multiply ciphertexts,
 *  read an operand encoded at delta (a plaintext or a constant) or
 *  refresh need their ciphertext operands at reduced scale. Rotation,
 *  conjugation, rescale and ModRaise are scale-agnostic, and add/sub
 *  only needs its operands to agree. */
bool
needs_reduced_operands(const OpInfo& op)
{
    return op.key == KeyClass::kMult || op.key == KeyClass::kBootstrap ||
           op.plain_slot >= 0 || op.params == OpParams::kConstant ||
           op.params == OpParams::kConstants;
}

Rewrite
place_rescales(const Graph& g, PassStats& stats)
{
    const double delta = g.traits().delta;
    // "Double scale": at or above delta^2, with slack — scales are
    // approximate bookkeeping, and delta vs delta^2 differ by a factor
    // of delta (>= 2^30 in any real instance), so a factor-2 margin
    // can never misclassify.
    const double waterline = delta * delta * 0.5;
    std::map<int, int> memo; // new value id -> its shared rescale's id

    return replay(g, [&](Graph& out, std::size_t idx,
                         std::vector<int>& map) {
        const Node& n = g.node(idx);
        // Returns the reduced-scale form of the (already mapped)
        // operand, inserting the shared rescale on first need.
        const auto reduced = [&](int new_id) -> int {
            if (out.value(new_id).scale < waterline) return new_id;
            const auto it = memo.find(new_id);
            if (it != memo.end()) return it->second;
            const Value r = out.hrescale(Value{new_id});
            ++stats.rescales_inserted;
            memo.emplace(new_id, r.id);
            return r.id;
        };

        Node copy = remapped(n, map);
        const OpInfo& op = op_info(n.kind);
        if (needs_reduced_operands(op)) {
            for (std::size_t s = 0; s < copy.inputs.size(); ++s) {
                if (static_cast<int>(s) != op.plain_slot) {
                    copy.inputs[s] = reduced(copy.inputs[s]);
                }
            }
        } else if (n.kind == OpKind::kHAdd || n.kind == OpKind::kHSub) {
            // Scale-preserving, but a mismatch (one operand still at
            // delta^2, the other already rescaled) must be repaired by
            // rescaling the larger side — otherwise pass through and
            // defer any shared obligation to the consumers.
            int& a = copy.inputs[0];
            int& b = copy.inputs[1];
            const double sa = out.value(a).scale;
            const double sb = out.value(b).scale;
            if (std::abs(sa / sb - 1.0) >= kScaleAgreement) {
                if (sa > sb) {
                    a = reduced(a);
                } else {
                    b = reduced(b);
                }
            }
        }
        emit(out, std::move(copy), n, map);
    });
}

// --------------------------------------------------------------------
// Pass 2: dead-value elimination. A node is live iff one of its
// results can reach a marked output. Declared inputs are always kept
// (the Binding contract requires every declared input bound, used or
// not).
// --------------------------------------------------------------------

Rewrite
eliminate_dead(const Graph& g, PassStats& stats)
{
    std::vector<char> live(g.num_values(), 0);
    std::vector<char> node_live(g.num_nodes(), 0);
    for (const int id : g.outputs()) live[id] = 1;
    for (std::size_t i = g.num_nodes(); i-- > 0;) {
        const Node& n = g.node(i);
        bool l = false;
        for (const int o : n.outputs) l = l || live[o];
        node_live[i] = l;
        if (l) {
            for (const int in : n.inputs) live[in] = 1;
        } else {
            ++stats.nodes_eliminated;
        }
    }
    return replay(g, [&](Graph& out, std::size_t idx,
                         std::vector<int>& map) {
        if (node_live[idx]) emit_same(out, g, idx, map);
    });
}

// --------------------------------------------------------------------
// Pass 3: rotation-hoisting CSE. All kHRot nodes reading the same
// value collapse into one kHRotHoisted node placed where the first of
// them was: the Executor then pays the decompose+ModUp prefix once
// for the whole group (Evaluator::rotate_hoisted). Duplicate amounts
// dedupe into a single shared result — classic CSE.
// --------------------------------------------------------------------

Rewrite
group_rotations(const Graph& g, PassStats& stats)
{
    // Per input value: the kHRot nodes reading it, in node order.
    std::map<int, std::vector<std::size_t>> rots_of;
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        if (n.kind == OpKind::kHRot) rots_of[n.inputs[0]].push_back(i);
    }
    // leader[i] >= 0: node i starts a group; grouped[i]: node i is a
    // member of some group (emitted at the leader's position).
    std::vector<char> grouped(g.num_nodes(), 0);
    std::vector<std::vector<std::size_t>> group_members(g.num_nodes());
    for (const auto& [value_id, members] : rots_of) {
        (void)value_id;
        if (members.size() < 2) continue;
        for (const std::size_t m : members) grouped[m] = 1;
        group_members[members[0]] = members;
        stats.rotations_grouped += members.size();
    }

    return replay(g, [&](Graph& out, std::size_t idx,
                         std::vector<int>& map) {
        if (!grouped[idx]) {
            emit_same(out, g, idx, map);
            return;
        }
        const auto& members = group_members[idx];
        if (members.empty()) return; // non-leader member: already done
        // Distinct amounts in first-appearance order; duplicate
        // rotations share one output — except that two rotations which
        // are BOTH marked graph outputs must keep distinct result
        // values, or the replayed output list would mark one value
        // twice (mark_output rejects that, and the positional output
        // contract needs one value per marked slot).
        const auto is_marked = [&](int vid) {
            const auto& outs = g.outputs();
            return std::find(outs.begin(), outs.end(), vid) !=
                   outs.end();
        };
        std::vector<int> amounts;
        std::vector<char> slot_marked;
        std::vector<std::size_t> out_slot(members.size());
        for (std::size_t k = 0; k < members.size(); ++k) {
            const int r = g.node(members[k]).rot_amount;
            const bool marked = is_marked(g.node(members[k]).output);
            const auto it =
                std::find(amounts.begin(), amounts.end(), r);
            const std::size_t slot =
                static_cast<std::size_t>(it - amounts.begin());
            if (it == amounts.end() || (marked && slot_marked[slot])) {
                out_slot[k] = amounts.size();
                amounts.push_back(r);
                slot_marked.push_back(marked ? 1 : 0);
            } else {
                out_slot[k] = slot;
                slot_marked[slot] |= marked ? 1 : 0;
                ++stats.nodes_eliminated; // duplicate rotation CSE'd
            }
        }
        const int mapped_in = map[g.node(idx).inputs[0]];
        BTS_ASSERT(mapped_in >= 0, "rotation operand eliminated");
        const std::vector<Value> outs =
            out.hrot_hoisted(Value{mapped_in}, amounts);
        for (std::size_t k = 0; k < members.size(); ++k) {
            map[g.node(members[k]).output] = outs[out_slot[k]].id;
        }
    });
}

// --------------------------------------------------------------------
// Pass 4: fusion. A producer whose single consumer completes one of
// the op table's fused pairs — HRescale after HMult/PMult/CMult, CAdd
// after CMult — collapses with it into the fused kind, dispatched as a
// single evaluator call (one scheduler hop, no intermediate value).
// Legal only when the intermediate has exactly one consumer and is not
// itself a graph output.
// --------------------------------------------------------------------

/** The fused kind whose parts are (@p first, @p second), if any. */
std::optional<OpKind>
fused_kind(OpKind first, OpKind second)
{
    // Gathered once from the op table's parts columns.
    static const std::map<std::pair<OpKind, OpKind>, OpKind> fusions = [] {
        std::map<std::pair<OpKind, OpKind>, OpKind> m;
        for (int k = 0; k < kNumOpKinds; ++k) {
            const OpInfo& op = op_info(static_cast<OpKind>(k));
            if (op.parts) {
                m.emplace(std::pair(op.parts->first, op.parts->second),
                          op.kind);
            }
        }
        return m;
    }();
    const auto it = fusions.find({first, second});
    if (it == fusions.end()) return std::nullopt;
    return it->second;
}

Rewrite
fuse_pairs(const Graph& g, PassStats& stats)
{
    const auto users = g.value_users();
    std::vector<char> is_out(g.num_values(), 0);
    for (const int id : g.outputs()) is_out[id] = 1;

    // fused_consumer[i] = j: producer node i absorbs consumer node j
    // into the kind fused_as[i].
    std::vector<int> fused_consumer(g.num_nodes(), -1);
    std::vector<std::optional<OpKind>> fused_as(g.num_nodes());
    std::vector<char> absorbed(g.num_nodes(), 0);
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        if (is_out[n.output] || users[n.output].size() != 1) continue;
        const std::size_t j =
            static_cast<std::size_t>(users[n.output][0]);
        fused_as[i] = fused_kind(n.kind, g.node(j).kind);
        if (!fused_as[i]) continue;
        fused_consumer[i] = static_cast<int>(j);
        absorbed[j] = 1;
        ++stats.ops_fused;
    }

    return replay(g, [&](Graph& out, std::size_t idx,
                         std::vector<int>& map) {
        if (absorbed[idx]) return; // emitted with its producer
        const Node& n = g.node(idx);
        if (fused_consumer[idx] < 0) {
            emit_same(out, g, idx, map);
            return;
        }
        const Node& c =
            g.node(static_cast<std::size_t>(fused_consumer[idx]));
        // The producer's operands and constant; a consumer constant
        // (CAdd's) becomes the fused node's second constant.
        Node fused = remapped(n, map);
        fused.kind = *fused_as[idx];
        if (op_info(c.kind).params == OpParams::kConstant) {
            fused.constant2 = c.constant;
        }
        map[n.output] = -1; // the intermediate no longer exists
        map[c.output] = out.append(std::move(fused)).id;
    });
}

/** Resolve VerifyMode::kAuto: Debug builds always verify; Release
 *  builds verify when BTS_DEBUG is set in the environment. */
bool
verify_enabled(VerifyMode mode)
{
    switch (mode) {
    case VerifyMode::kOn: return true;
    case VerifyMode::kOff: return false;
    case VerifyMode::kAuto:
#ifndef NDEBUG
        return true;
#else
        return std::getenv("BTS_DEBUG") != nullptr;
#endif
    }
    return false;
}

} // namespace

OptimizeResult
PassManager::optimize(const Graph& g) const
{
    PassStats stats;
    // Start from a replayed copy: a fresh uid (so Executors plan the
    // optimized graph independently) and an identity value map.
    Rewrite cur = replay(g, [&](Graph& out, std::size_t idx,
                                std::vector<int>& map) {
        emit_same(out, g, idx, map);
    });

    // Inter-pass verification: the well-formedness subset (structure
    // cross-links + metadata re-inference) after every pass, so a
    // corrupting pass fails HERE with its name instead of corrupting
    // every downstream pass and surfacing as an executor throw. Cost
    // is linear in graph size, and the rewrites themselves replay
    // through the validating builder, so kAuto only pays it in Debug
    // builds (or under BTS_DEBUG=1).
    const bool verify = verify_enabled(opts_.verify);
    const auto verify_after = [&](const std::string& pass_name) {
        if (!verify) return;
        const analysis::Analysis a = analysis::analyze(
            cur.graph, analysis::AnalysisOptions::wellformed());
        if (!a.ok()) {
            panic("pass '" + pass_name + "' corrupted graph '" +
                  g.name() + "':\n" +
                  analysis::render_text(cur.graph.name(), a.diags));
        }
    };
    verify_after("initial-replay");

    // Compose cur.map with a pass's old->new map.
    const auto apply = [&](Rewrite next) {
        for (int& m : cur.map) {
            if (m >= 0) m = next.map[m];
        }
        cur.graph = std::move(next.graph);
    };

    if (opts_.place_rescales) {
        apply(place_rescales(cur.graph, stats));
        verify_after("place-rescales");
    }
    if (opts_.eliminate_dead) {
        apply(eliminate_dead(cur.graph, stats));
        verify_after("dead-value-elim");
    }
    if (opts_.group_rotations) {
        apply(group_rotations(cur.graph, stats));
        verify_after("rotation-cse");
    }
    if (opts_.fuse) {
        apply(fuse_pairs(cur.graph, stats));
        verify_after("fusion");
    }
    for (const CustomPass& cp : opts_.custom_passes) {
        cp.run(cur.graph);
        verify_after(cp.name);
    }
    return OptimizeResult{std::move(cur.graph), stats,
                          std::move(cur.map)};
}

} // namespace bts::runtime::passes
