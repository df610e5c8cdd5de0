#include "runtime/analysis/resource.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/check.h"
#include "common/types.h"
#include "runtime/analysis/dot.h"
#include "runtime/lowering.h"

namespace bts::runtime::analysis {

namespace {

/**
 * Serial-schedule liveness walk, mirroring Executor::run_serial op for
 * op: bind ciphertext inputs (drop unused ones immediately, sample the
 * peak once after binding), then per node — materialize outputs,
 * sample the peak, release input uses, drop dead outputs. A value at
 * `level` weighs 2 (level+1) N 8 bytes: the two RnsPoly components of
 * (level+1) residue rows of N words. Fills @p s's peaks and every
 * node's post-node live set.
 */
void
liveness_walk(const Graph& g, const hw::CkksInstance& inst,
              ResourceSummary& s)
{
    const double n_words = static_cast<double>(inst.n);
    const auto bytes_of = [n_words](int level) {
        return 2.0 * (level + 1) * n_words * 8.0;
    };
    std::vector<int> uses_left(g.num_values(), 0);
    for (std::size_t id = 0; id < g.num_values(); ++id) {
        const ValueInfo& info = g.value(static_cast<int>(id));
        uses_left[id] = info.is_plain ? 0 : info.num_uses;
    }

    std::size_t live = 0;
    double live_bytes = 0;
    const auto drop = [&](int id) {
        --live;
        live_bytes -= bytes_of(g.value(id).level);
    };

    for (const int id : g.input_ids()) {
        const ValueInfo& info = g.value(id);
        if (info.is_plain) continue; // borrowed, never resident
        ++live;
        live_bytes += bytes_of(info.level);
        if (uses_left[id] == 0) drop(id); // declared but unused
    }
    s.peak_live_values = live;
    s.peak_live_bytes = live_bytes;

    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        for (const int out : n.outputs) {
            ++live;
            live_bytes += bytes_of(g.value(out).level);
        }
        s.peak_live_values = std::max(s.peak_live_values, live);
        s.peak_live_bytes = std::max(s.peak_live_bytes, live_bytes);
        for (const int in : n.inputs) {
            if (uses_left[in] <= 0) continue; // plaintext slots stay 0
            if (--uses_left[in] == 0) drop(in);
        }
        for (const int out : n.outputs) {
            if (uses_left[out] == 0) drop(out); // dead result
        }
        s.nodes[i].live_after = live;
        s.nodes[i].live_bytes_after = live_bytes;
    }
}

/**
 * Maximum antichain of the node dependence DAG via Dilworth: width =
 * n - (maximum matching of the transitive-closure bipartite graph).
 * O(n^2) closure bitsets + Kuhn's matching — fine for the few-hundred
 * node graphs the serving path registers; larger graphs skip it
 * (width = 0, "not computed") rather than stall registration.
 */
std::size_t
dependence_width(const Graph& g)
{
    const std::size_t n = g.num_nodes();
    if (n == 0 || n > 512) return 0;
    const std::size_t words = (n + 63) / 64;
    // reach[i] = set of nodes j > i with a dependence path i -> j.
    std::vector<u64> reach(n * words, 0);
    const auto set_bit = [&](std::size_t i, std::size_t j) {
        reach[i * words + j / 64] |= u64{1} << (j % 64);
    };
    const auto get_bit = [&](std::size_t i, std::size_t j) {
        return (reach[i * words + j / 64] >> (j % 64)) & 1u;
    };
    // Walk backwards: node i reaches its direct consumers plus
    // everything they reach (consumers always have larger indices —
    // creation order is topological).
    for (std::size_t i = n; i-- > 0;) {
        for (const int in : g.node(i).inputs) {
            const int p = g.value(in).producer;
            if (p < 0) continue;
            const std::size_t pi = static_cast<std::size_t>(p);
            set_bit(pi, i);
            for (std::size_t w = 0; w < words; ++w) {
                reach[pi * words + w] |= reach[i * words + w];
            }
        }
    }
    // Kuhn's augmenting paths on the closure's bipartite graph.
    std::vector<int> match_right(n, -1);
    std::vector<char> visited(n, 0);
    const std::function<bool(std::size_t)> augment =
        [&](std::size_t u) -> bool {
        for (std::size_t v = u + 1; v < n; ++v) {
            if (!get_bit(u, v) || visited[v]) continue;
            visited[v] = 1;
            if (match_right[v] < 0 ||
                augment(static_cast<std::size_t>(match_right[v]))) {
                match_right[v] = static_cast<int>(u);
                return true;
            }
        }
        return false;
    };
    std::size_t matched = 0;
    for (std::size_t u = 0; u < n; ++u) {
        std::fill(visited.begin(), visited.end(), 0);
        if (augment(u)) ++matched;
    }
    return n - matched;
}

std::string
human_bytes(double bytes)
{
    std::ostringstream os;
    os.precision(3);
    if (bytes >= 1024.0 * 1024.0 * 1024.0) {
        os << bytes / (1024.0 * 1024.0 * 1024.0) << " GiB";
    } else if (bytes >= 1024.0 * 1024.0) {
        os << bytes / (1024.0 * 1024.0) << " MiB";
    } else if (bytes >= 1024.0) {
        os << bytes / 1024.0 << " KiB";
    } else {
        os << bytes << " B";
    }
    return os.str();
}

} // namespace

ResourceSummary
analyze_resources(const Graph& g, const hw::CkksInstance& inst,
                  const sim::BtsConfig& hw)
{
    // Price the lowered trace itself: lower_to_trace enforces the
    // level-geometry preconditions, and node_end attributes each op to
    // the node that emitted it.
    std::vector<std::size_t> node_end;
    const sim::Trace trace = lower_to_trace(g, inst, &node_end);

    ResourceSummary s;
    s.nodes.resize(g.num_nodes());
    s.bootstrap_count = trace.bootstrap_count;
    s.total_ops = trace.ops.size();

    const sim::CostModel model(hw, inst);
    std::size_t op = 0;
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const bool is_bootstrap = g.node(i).kind == OpKind::kBootstrap;
        NodeResource& nr = s.nodes[i];
        double node_evk_resident = 0;
        for (; op < node_end[i]; ++op) {
            const sim::HeOp& p = trace.ops[op];
            const sim::OpCost c = model.op_cost(p);
            s.op_counts[static_cast<std::size_t>(p.kind)] += 1;
            nr.cost_s += c.compute_s;
            nr.evk_bytes += c.evk_bytes;
            s.ntt_s += c.ntt_s;
            s.bconv_s += c.bconv_s;
            s.elem_s += c.elem_s;
            if (sim::needs_evk(p.kind)) {
                ++s.evk_ops;
                s.keyswitch_work_s += c.compute_s;
                // Within one node the Executor holds every key the
                // node's call needs: all the distinct keys of a
                // hoisted group at once, one key at a time inside the
                // (serial) bootstrap plan.
                if (is_bootstrap) {
                    node_evk_resident =
                        std::max(node_evk_resident, c.evk_bytes);
                } else {
                    node_evk_resident += c.evk_bytes;
                }
            }
        }
        s.total_work_s += nr.cost_s;
        s.evk_bytes += nr.evk_bytes;
        s.evk_working_set_bytes =
            std::max(s.evk_working_set_bytes, node_evk_resident);
    }

    liveness_walk(g, inst, s);

    // Critical path: longest cost-weighted dependence chain.
    std::vector<double> finish(g.num_nodes(), 0);
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        double start = 0;
        for (const int in : g.node(i).inputs) {
            const int p = g.value(in).producer;
            if (p >= 0) start = std::max(start, finish[p]);
        }
        s.nodes[i].critical_start_s = start;
        finish[i] = start + s.nodes[i].cost_s;
        s.critical_path_s = std::max(s.critical_path_s, finish[i]);
    }
    s.parallelism = s.critical_path_s > 0
                        ? s.total_work_s / s.critical_path_s
                        : 0.0;
    s.width = dependence_width(g);
    return s;
}

std::vector<Diagnostic>
check_resources(const ResourceSummary& s, const ResourceLimits& limits)
{
    std::vector<Diagnostic> diags;
    const auto emit = [&](const char* rule, Severity sev,
                          std::string message, std::string hint) {
        Diagnostic d;
        d.rule = rule;
        d.severity = sev;
        d.message = std::move(message);
        d.hint = std::move(hint);
        diags.push_back(std::move(d));
    };
    if (limits.max_peak_live_bytes > 0 &&
        s.peak_live_bytes > limits.max_peak_live_bytes) {
        emit("rs-peak-live", Severity::kError,
             "peak live set " + human_bytes(s.peak_live_bytes) +
                 " exceeds the budget " +
                 human_bytes(limits.max_peak_live_bytes),
             "split the graph, bootstrap earlier, or serve it on an "
             "instance with more memory headroom");
    }
    if (limits.max_evk_working_set_bytes > 0 &&
        s.evk_working_set_bytes > limits.max_evk_working_set_bytes) {
        emit("rs-evk-working-set", Severity::kError,
             "a node needs " + human_bytes(s.evk_working_set_bytes) +
                 " of evaluation keys resident at once, budget is " +
                 human_bytes(limits.max_evk_working_set_bytes),
             "shrink hoisted-rotation groups or raise dnum to shrink "
             "per-key footprint");
    }
    if (limits.min_parallelism > 0 && s.total_work_s > 0 &&
        s.parallelism < limits.min_parallelism) {
        std::ostringstream msg;
        msg.precision(3);
        msg << "static parallelism " << s.parallelism
            << " is below the floor " << limits.min_parallelism
            << " (critical path " << s.critical_path_s
            << " s of " << s.total_work_s << " s total work)";
        emit("rs-critical-path", Severity::kWarning, msg.str(),
             "the graph is effectively a chain; extra executor lanes "
             "cannot shorten it");
    }
    return diags;
}

std::string
render_resource_text(const std::string& graph_name,
                     const ResourceSummary& s)
{
    std::ostringstream os;
    os.precision(4);
    os << graph_name << ": " << s.total_ops << " primitive ops";
    if (s.bootstrap_count > 0) {
        os << " (" << s.bootstrap_count << " bootstrap"
           << (s.bootstrap_count > 1 ? "s" : "") << ")";
    }
    os << "\n  ops:";
    for (int k = 0; k < sim::kHeOpKindCount; ++k) {
        const std::size_t c = s.op_counts[static_cast<std::size_t>(k)];
        if (c == 0) continue;
        os << " " << sim::kind_name(static_cast<sim::HeOpKind>(k)) << "="
           << c;
    }
    os << "\n  work: total=" << s.total_work_s
       << " s, key-switch=" << s.keyswitch_work_s
       << " s, ntt=" << s.ntt_s << " s, bconv=" << s.bconv_s
       << " s, elem=" << s.elem_s << " s\n"
       << "  evk: stream=" << human_bytes(s.evk_bytes)
       << ", working-set=" << human_bytes(s.evk_working_set_bytes)
       << " (" << s.evk_ops << " key-switches)\n"
       << "  live: peak=" << s.peak_live_values << " ct ("
       << human_bytes(s.peak_live_bytes) << ")\n"
       << "  schedule: critical-path=" << s.critical_path_s
       << " s, parallelism=" << s.parallelism;
    if (s.width > 0) os << ", width=" << s.width;
    os << "\n";
    return os.str();
}

std::string
render_resource_json(const std::string& graph_name,
                     const ResourceSummary& s)
{
    std::ostringstream os;
    os.precision(12);
    os << "{\"graph\": \"" << graph_name << "\", \"total_ops\": "
       << s.total_ops << ", \"bootstrap_count\": " << s.bootstrap_count
       << ", \"op_counts\": {";
    bool first = true;
    for (int k = 0; k < sim::kHeOpKindCount; ++k) {
        const std::size_t c = s.op_counts[static_cast<std::size_t>(k)];
        if (c == 0) continue;
        os << (first ? "" : ", ") << "\""
           << sim::kind_name(static_cast<sim::HeOpKind>(k)) << "\": " << c;
        first = false;
    }
    os << "}, \"total_work_s\": " << s.total_work_s
       << ", \"keyswitch_work_s\": " << s.keyswitch_work_s
       << ", \"ntt_s\": " << s.ntt_s << ", \"bconv_s\": " << s.bconv_s
       << ", \"elem_s\": " << s.elem_s << ", \"evk_bytes\": " << s.evk_bytes
       << ", \"evk_working_set_bytes\": " << s.evk_working_set_bytes
       << ", \"evk_ops\": " << s.evk_ops
       << ", \"peak_live_values\": " << s.peak_live_values
       << ", \"peak_live_bytes\": " << s.peak_live_bytes
       << ", \"critical_path_s\": " << s.critical_path_s
       << ", \"parallelism\": " << s.parallelism
       << ", \"width\": " << s.width << "}";
    return os.str();
}

std::string
render_schedule_text(const Graph& g, const ResourceSummary& s)
{
    BTS_CHECK(s.nodes.size() == g.num_nodes(),
              "schedule table needs the summary of this graph");
    std::ostringstream os;
    os.precision(4);
    os << g.name()
       << ": serial schedule (cost / evk / live set after each node)\n";
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        const Node& n = g.node(i);
        const NodeResource& nr = s.nodes[i];
        os << "  #" << i << " " << op_name(n.kind);
        if (n.kind == OpKind::kHRot) os << " r=" << n.rot_amount;
        if (n.kind == OpKind::kHRotHoisted) {
            os << " x" << n.amounts.size();
        }
        os << ": cost=" << nr.cost_s << " s";
        if (nr.evk_bytes > 0) {
            os << ", evk=" << human_bytes(nr.evk_bytes);
        }
        os << ", live=" << nr.live_after << " ct ("
           << human_bytes(nr.live_bytes_after) << "), start>="
           << nr.critical_start_s << " s\n";
    }
    return os.str();
}

std::string
to_resource_dot(const Graph& g, const ResourceSummary& s)
{
    BTS_CHECK(s.nodes.size() == g.num_nodes(),
              "cost DOT needs the summary of this graph");
    // Tint the nodes on the critical path: the chain whose finish time
    // equals the graph's critical path, walked back greedily.
    std::vector<char> critical(g.num_nodes(), 0);
    {
        double target = s.critical_path_s;
        int at = -1;
        for (std::size_t i = g.num_nodes(); i-- > 0;) {
            const double fin =
                s.nodes[i].critical_start_s + s.nodes[i].cost_s;
            if (at < 0 && std::abs(fin - target) <= 1e-15 + 1e-9 * target) {
                at = static_cast<int>(i);
            }
        }
        while (at >= 0) {
            critical[at] = 1;
            target = s.nodes[at].critical_start_s;
            int next = -1;
            for (const int in : g.node(static_cast<std::size_t>(at)).inputs) {
                const int p = g.value(in).producer;
                if (p < 0) continue;
                const double fin =
                    s.nodes[p].critical_start_s + s.nodes[p].cost_s;
                if (std::abs(fin - target) <= 1e-15 + 1e-9 * target) {
                    next = p;
                }
            }
            at = next;
        }
    }

    DotView view;
    view.input_label = [&](std::ostream& label, int id) {
        label << "\\nL" << g.value(id).level;
    };
    view.node_label = [&](std::ostream& label, std::size_t i) {
        const NodeResource& nr = s.nodes[i];
        label.precision(3);
        label << "\\n" << nr.cost_s * 1e3 << " ms, live " << nr.live_after
              << " ct";
        if (nr.evk_bytes > 0) {
            label << "\\nevk " << human_bytes(nr.evk_bytes);
        }
    };
    view.node_fill = [&](std::size_t i) -> const char* {
        return critical[i] ? "lightsteelblue" : nullptr;
    };
    return render_dot(g, view);
}

} // namespace bts::runtime::analysis
