/**
 * @file
 * The bootstrapping op plan every simulated figure prices: ModRaise,
 * 3 CoeffToSlot stages, conjugation, EvalMod on both components,
 * 3 SlotToCoeff stages.
 *
 * This is the one description of a bootstrap on the model side.
 * lower_to_trace expands each runtime kBootstrap node with it, the
 * resource analyzer prices that lowered trace, bench/fig10_edap chains
 * it back to back, and hw::bootstrap_keyswitch_count /
 * hw::min_bound_tmult_ns read the levels of its evk-bearing ops.
 */
#pragma once

#include "hwparams/instance.h"
#include "sim/op_trace.h"

namespace bts::sim {

/**
 * One full bootstrapping. Appends to @p builder starting from a
 * level-0 ciphertext @p ct_id and returns the refreshed ciphertext id
 * (at level L - L_boot). Every op is tagged in_bootstrap and
 * Trace::bootstrap_count is incremented.
 */
int append_bootstrap(TraceBuilder& builder, const hw::CkksInstance& inst,
                     int ct_id);

} // namespace bts::sim
