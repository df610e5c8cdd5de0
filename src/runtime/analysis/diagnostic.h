/**
 * @file
 * Structured diagnostics for the runtime IR: the shared currency of
 * the graph builder's validation errors (Graph::append), the static
 * verifier (runtime/analysis/verifier.h), the pass pipeline's
 * inter-pass checks and the `bts_lint` tool. One Diagnostic names the
 * violated rule, the severity, the offending node (index + op kind)
 * and value, a human message and a fix hint — so "node 231 (HMult):
 * ..." reads the same whether it was raised while building the graph
 * or while analyzing it.
 */
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace bts::runtime::analysis {

enum class Severity {
    kNote,    //!< informational annotation
    kWarning, //!< suspicious but executable
    kError,   //!< the graph must not be executed
};

/** "note" / "warning" / "error". */
const char* severity_name(Severity s);

/** One finding. `node`/`value` are -1 when the finding is graph-level
 *  (e.g. a missing key); `op` is empty when no node is implicated. */
struct Diagnostic
{
    std::string rule; //!< kebab-case rule id, e.g. "meta-level"
    Severity severity = Severity::kError;
    int node = -1;      //!< offending node index
    std::string op;     //!< op kind name at that node
    int value = -1;     //!< offending value id
    std::string message;
    std::string hint;   //!< how to fix it (may be empty)
};

/** One-line text form:
 *  `error: [meta-level] node 12 (HMult) v34: <message> (fix: <hint>)`.
 *  The `node N (<op>)` clause matches the builder's historical error
 *  format, so tests and logs grep one shape. */
std::string to_text(const Diagnostic& d);

/** Multi-line text report, one to_text line per diagnostic, prefixed
 *  with the graph name and a severity tally. */
std::string render_text(const std::string& graph_name,
                        const std::vector<Diagnostic>& diags);

/** JSON object `{"graph": ..., "errors": N, "warnings": N,
 *  "diagnostics": [{...}, ...]}` — the `bts_lint --format=json`
 *  payload CI greps without executing ciphertext math. */
std::string render_json(const std::string& graph_name,
                        const std::vector<Diagnostic>& diags);

bool has_errors(const std::vector<Diagnostic>& diags);
std::size_t count_severity(const std::vector<Diagnostic>& diags,
                           Severity s);

/**
 * The exception every rejected graph surfaces: builder-time validation
 * (one diagnostic) and analysis-time rejection
 * (GraphServer::register_graph, verify_or_throw; every error-level
 * finding) both throw this. Derives std::invalid_argument so existing
 * catch sites keep working; what() is the rendered text report and
 * diagnostics() is the structured form a serving front-end can return
 * to the client.
 */
class VerifyError : public std::invalid_argument
{
  public:
    VerifyError(std::string graph_name, std::vector<Diagnostic> diags);

    const std::string& graph_name() const { return graph_name_; }
    const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  private:
    std::string graph_name_;
    std::vector<Diagnostic> diags_;
};

/** Throw a single-diagnostic VerifyError (the builder's error path). */
[[noreturn]] void throw_diagnostic(std::string graph_name, Diagnostic d);

} // namespace bts::runtime::analysis
