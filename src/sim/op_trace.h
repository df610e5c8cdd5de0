/**
 * @file
 * HE-operation intermediate representation: the unit of work the BTS
 * simulator schedules.
 *
 * The simulator consumes *traces* — sequences of primitive CKKS ops
 * (Section 2.3) annotated with their multiplicative level, operand
 * object ids (for software-cache behaviour) and a bootstrap flag (for
 * the Fig. 7b / Fig. 10 breakdowns).
 *
 * An op is a fixed-size value: its operands live inline (OpInputs holds
 * at most two ids, the arity of every runtime op and every
 * bootstrap-plan op), so building, copying and freeing a trace of
 * hundreds of thousands of ops makes one allocation per vector growth,
 * none per op.
 */
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace bts::sim {

/** Primitive HE op kinds (Section 2.3 + ModRaise). */
enum class HeOpKind {
    kHMult,    //!< tensor product + key-switch (evk-bearing)
    kHRot,     //!< automorphism + key-switch (evk-bearing)
    kConj,     //!< conjugation + key-switch (evk-bearing)
    kPMult,    //!< ciphertext x plaintext
    kPAdd,     //!< ciphertext + plaintext
    kHAdd,     //!< ciphertext + ciphertext
    kHRescale, //!< divide by the top prime
    kCMult,    //!< ciphertext x scalar
    kCAdd,     //!< ciphertext + scalar
    kModRaise, //!< bootstrap modulus raise
};

/**
 * Number of HeOpKind enumerators. Adding a kind means updating this
 * constant AND every switch over the enum — all of them are written
 * without a default case, so -Wswitch (-Werror on the library) flags
 * each site at compile time, and the exhaustiveness test in
 * tests/sim/test_sim.cpp walks [0, kHeOpKindCount) at run time.
 */
inline constexpr int kHeOpKindCount =
    static_cast<int>(HeOpKind::kModRaise) + 1;

/** @return true if the op streams an evaluation key. */
bool needs_evk(HeOpKind kind);

/** Human-readable kind name (never null; throws on a value outside
 *  the enumerator range). */
const char* kind_name(HeOpKind kind);

/**
 * An op's operand object ids, stored inline: at most kMaxInputs of
 * them. Iterates, sizes and compares like the id list it stands for;
 * a third operand throws std::invalid_argument.
 */
class OpInputs
{
  public:
    static constexpr std::size_t kMaxInputs = 2;
    using const_iterator = const int*;
    using iterator = const_iterator;

    OpInputs() = default;
    OpInputs(std::initializer_list<int> ids)
    {
        for (const int id : ids) push_back(id);
    }

    void
    push_back(int id)
    {
        if (size_ == kMaxInputs) reject_extra_input();
        ids_[size_++] = id;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const_iterator begin() const { return ids_.data(); }
    const_iterator end() const { return ids_.data() + size_; }

    /** Same ids in the same order (unused slots stay 0). */
    bool operator==(const OpInputs&) const = default;

  private:
    [[noreturn]] static void reject_extra_input();

    std::array<int, kMaxInputs> ids_{};
    std::uint8_t size_ = 0;
};

/** One primitive op instance. */
struct HeOp
{
    HeOpKind kind = HeOpKind::kHAdd;
    int level = 0;           //!< multiplicative level it executes at
    int rot_amount = 0;      //!< HRot rotation distance (selects the evk)
    OpInputs inputs;         //!< ciphertext/plaintext object ids
    int output = -1;         //!< output object id (-1: in-place/none)
    bool in_bootstrap = false;

    /** Field-wise equality (the runtime-lowering pin tests compare
     *  whole traces op for op). */
    bool operator==(const HeOp&) const = default;
};

/** A schedulable op sequence. */
struct Trace
{
    std::string name;
    std::vector<HeOp> ops;
    int bootstrap_count = 0;
};

/** Op count per kind — the op-mix signature of a trace. */
std::map<HeOpKind, int> kind_histogram(const Trace& trace);

/**
 * Convenience builder tracking object ids and the current level, used
 * by lower_to_trace and the bootstrap plan.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(std::string name) { trace_.name = std::move(name); }

    /** Allocate a fresh ciphertext/plaintext object id. */
    int fresh_id() { return next_id_++; }

    /** Append an op; returns the output id (fresh unless provided). */
    int add(HeOpKind kind, int level, OpInputs inputs, int rot_amount = 0,
            bool in_bootstrap = false);

    /** Append an op writing into an existing object (accumulators and
     *  value chains — keeps dead intermediates out of the SW cache). */
    int add_into(int out_id, HeOpKind kind, int level, OpInputs inputs,
                 int rot_amount = 0, bool in_bootstrap = false);

    Trace& trace() { return trace_; }
    const Trace& trace() const { return trace_; }

  private:
    Trace trace_;
    int next_id_ = 0;
};

} // namespace bts::sim
