#include "sim/op_trace.h"

#include "common/check.h"

namespace bts::sim {

bool
needs_evk(HeOpKind kind)
{
    // Exhaustive switch, no default: a new HeOpKind that is not
    // classified here is a -Wswitch error under -Werror, not a silent
    // "no evk" fall-through (which would quietly drop the dominant
    // HBM-traffic term from the cost model).
    switch (kind) {
    case HeOpKind::kHMult:
    case HeOpKind::kHRot:
    case HeOpKind::kConj:
        return true;
    case HeOpKind::kPMult:
    case HeOpKind::kPAdd:
    case HeOpKind::kHAdd:
    case HeOpKind::kHRescale:
    case HeOpKind::kCMult:
    case HeOpKind::kCAdd:
    case HeOpKind::kModRaise:
        return false;
    }
    panic("needs_evk: unknown HeOpKind");
}

const char*
kind_name(HeOpKind kind)
{
    switch (kind) {
    case HeOpKind::kHMult: return "HMult";
    case HeOpKind::kHRot: return "HRot";
    case HeOpKind::kConj: return "Conj";
    case HeOpKind::kPMult: return "PMult";
    case HeOpKind::kPAdd: return "PAdd";
    case HeOpKind::kHAdd: return "HAdd";
    case HeOpKind::kHRescale: return "HRescale";
    case HeOpKind::kCMult: return "CMult";
    case HeOpKind::kCAdd: return "CAdd";
    case HeOpKind::kModRaise: return "ModRaise";
    }
    panic("kind_name: unknown HeOpKind");
}

void
OpInputs::reject_extra_input()
{
    fatal("an op takes at most " + std::to_string(kMaxInputs) +
          " operands");
}

std::map<HeOpKind, int>
kind_histogram(const Trace& trace)
{
    std::map<HeOpKind, int> hist;
    for (const HeOp& op : trace.ops) hist[op.kind] += 1;
    return hist;
}

int
TraceBuilder::add(HeOpKind kind, int level, OpInputs inputs, int rot_amount,
                  bool in_bootstrap)
{
    // Validate before allocating the output id: a rejected op must not
    // advance the id counter, or a generator that recovers from the
    // throw emits a shifted id stream.
    BTS_CHECK(level >= 0, "op below level 0");
    return add_into(next_id_++, kind, level, inputs, rot_amount,
                    in_bootstrap);
}

int
TraceBuilder::add_into(int out_id, HeOpKind kind, int level,
                       OpInputs inputs, int rot_amount, bool in_bootstrap)
{
    BTS_CHECK(level >= 0, "op below level 0");
    trace_.ops.push_back({.kind = kind,
                          .level = level,
                          .rot_amount = rot_amount,
                          .inputs = inputs,
                          .output = out_id,
                          .in_bootstrap = in_bootstrap});
    return out_id;
}

} // namespace bts::sim
