#include "ckks/bootstrapper.h"

#include <cmath>
#include <set>

#include "common/bit_ops.h"
#include "common/check.h"
#include "runtime/telemetry/trace.h"

namespace bts {

Bootstrapper::Bootstrapper(const CkksContext& ctx, const CkksEncoder& encoder,
                           const Evaluator& eval,
                           const BootstrapConfig& config)
    : ctx_(ctx),
      encoder_(encoder),
      eval_(eval),
      config_(config),
      gap_(ctx.n() / 2 / config.slots),
      packed_(2 * config.slots <= ctx.n() / 2),
      sine_series_(ChebyshevSeries::interpolate(
          [](double u) { return std::sin(2.0 * M_PI * u) / (2.0 * M_PI); },
          -config.k_range, config.k_range, config.sine_degree))
{
    BTS_CHECK(is_power_of_two(config_.slots) &&
                  config_.slots <= ctx.n() / 2,
              "slots must be a power of two <= N/2");
    BTS_CHECK((config_.cts_radix == 0) == (config_.stc_radix == 0),
              "cts_radix/stc_radix must be both zero (dense oracle) or "
              "both nonzero: the factored stages defer the DFT "
              "bit-reversal across EvalMod, so one side cannot be dense");
    for (int radix : {config_.cts_radix, config_.stc_radix}) {
        BTS_CHECK(radix == 0 ||
                      (radix >= 2 &&
                       is_power_of_two(static_cast<u64>(radix))),
                  "radix must be 0 (dense) or a power of two >= 2, got "
                      << radix);
    }
    const std::size_t n = config_.slots;

    // CoeffToSlot. SubSum's gap amplification must NOT be divided out
    // here: EvalMod needs slots of the exact form (gap*m + q0*I)/q0
    // with integer I — the 1/gap is folded into the scale metadata after
    // EvalMod instead (stage_eval_mod). Packed, the stages next to
    // EvalMod carry one 2n-slot part (FactoredDft's `packed`).
    const auto compile = [&](DftDirection direction, int radix, int level) {
        return std::make_unique<FactoredDft>(
            radix == 0 ? FactoredDft::dense(ctx_, encoder_, n, direction,
                                            level, packed_)
                       : FactoredDft(ctx_, encoder_, n, direction, radix,
                                     level, packed_));
    };
    cts_ = compile(DftDirection::kCoeffToSlot, config_.cts_radix,
                   ctx_.max_level());

    // SlotToCoeff compiles eagerly too, at the exact level the pipeline
    // reaches after CtS and EvalMod (the Chebyshev depth is known at
    // setup), so required_rotations() is exact from construction.
    const int eval_mod_levels =
        ChebyshevEvaluator::depth(config_.sine_degree) + 1;
    stc_input_level_ = ctx_.max_level() - cts_levels() - eval_mod_levels;
    const int stc_needs =
        config_.stc_radix == 0
            ? 1
            : FactoredDft::num_stages_for(n, config_.stc_radix);
    BTS_CHECK(stc_input_level_ >= stc_needs,
              "level budget exhausted before SlotToCoeff: max_level "
                  << ctx_.max_level() << " - CtS " << cts_levels()
                  << " - EvalMod " << eval_mod_levels << " leaves "
                  << stc_input_level_ << " < " << stc_needs);
    stc_ = compile(DftDirection::kSlotToCoeff, config_.stc_radix,
                   stc_input_level_);
    output_level_ = stc_input_level_ - stc_levels();
    if (config_.normalize_output_scale && output_level_ >= 1) {
        --output_level_;
    }
}

int
Bootstrapper::cts_levels() const
{
    return cts_->num_stages();
}

int
Bootstrapper::stc_levels() const
{
    return stc_->num_stages();
}

std::vector<int>
Bootstrapper::required_rotations() const
{
    std::set<int> amounts;
    for (int r : cts_->required_rotations()) amounts.insert(r);
    for (int r : stc_->required_rotations()) amounts.insert(r);
    // SubSum amounts: slots, 2*slots, ..., N/4. The packed StC head's
    // half turn by `slots` is the first of them.
    for (std::size_t r = config_.slots; r < ctx_.n() / 2; r *= 2) {
        amounts.insert(static_cast<int>(r));
    }
    return {amounts.begin(), amounts.end()};
}

void
Bootstrapper::set_keys(const EvalKey* mult_key, const RotationKeys* rot_keys,
                       const EvalKey* conj_key)
{
    mult_key_ = mult_key;
    rot_keys_ = rot_keys;
    conj_key_ = conj_key;
}

Ciphertext
Bootstrapper::stage_raise_and_subsum(const Ciphertext& ct) const
{
    BTS_TRACE_SPAN(kBootstrap, "bootstrap.subsum");
    BTS_CHECK(ct.level == 0, "bootstrap input must be exhausted (level 0)");
    Ciphertext raised = eval_.mod_raise(ct);

    // SubSum: project onto the packing subring (message *= gap).
    for (std::size_t r = config_.slots; r < ctx_.n() / 2; r *= 2) {
        const auto it = rot_keys_->find(static_cast<int>(r));
        BTS_CHECK(it != rot_keys_->end(),
                  "missing SubSum rotation key " << r);
        // Rotation in the full-packing slot space; operate on a view
        // with full slot metadata.
        Ciphertext view = raised;
        view.slots = ctx_.n() / 2;
        Ciphertext rotated =
            eval_.rotate(view, static_cast<int>(r), it->second);
        raised.b.add_inplace(rotated.b);
        raised.a.add_inplace(rotated.a);
    }

    // Reinterpret at scale q0: slots now read (gap*m + q0*I)/q0.
    raised.scale = static_cast<double>(ctx_.q_primes()[0]);
    raised.slots = config_.slots;
    return raised;
}

std::vector<Ciphertext>
Bootstrapper::stage_coeff_to_slot(const Ciphertext& raised) const
{
    BTS_TRACE_SPAN(kBootstrap, "bootstrap.cts");
    Ciphertext t = cts_->apply(eval_, raised, *rot_keys_);
    Ciphertext tc = eval_.conjugate(t, *conj_key_);

    // u_re = t + conj(t), u_im = i*(conj(t) - t); the 1/2 was folded
    // into the CtS matrix and multiplication by i is the exact monomial.
    // Packed, t is the 2n-slot (t, -i*t) and t + conj(t) alone is the
    // one real part (u_re, u_im). (Under the factored path the slots
    // are in bit-reversed order here; the split and EvalMod are
    // slot-wise, so StC undoes it.)
    Ciphertext u_re = t;
    u_re.b.add_inplace(tc.b);
    u_re.a.add_inplace(tc.a);
    std::vector<Ciphertext> parts;
    parts.push_back(std::move(u_re));
    if (!packed_) {
        Ciphertext diff = std::move(tc);
        diff.b.sub_inplace(t.b);
        diff.a.sub_inplace(t.a);
        parts.push_back(eval_.mult_by_i(diff));
    }
    return parts;
}

Ciphertext
Bootstrapper::stage_eval_mod(const Ciphertext& u) const
{
    BTS_TRACE_SPAN(kBootstrap, "bootstrap.evalmod");
    const ChebyshevEvaluator cheby(eval_);
    Ciphertext v = cheby.evaluate(u, sine_series_, *mult_key_);
    // The sine output is gap*m_k/q0 in value; fold gap, Delta and q0
    // back into the scale metadata so the slots read message
    // coefficients at the canonical scale.
    const double q0 = static_cast<double>(ctx_.q_primes()[0]);
    v.scale = v.scale * static_cast<double>(gap_) * ctx_.delta() / q0;
    return v;
}

Ciphertext
Bootstrapper::stage_slot_to_coeff(std::span<const Ciphertext> parts) const
{
    BTS_TRACE_SPAN(kBootstrap, "bootstrap.stc");
    BTS_CHECK(parts.size() == (packed_ ? 1u : 2u),
              "SlotToCoeff takes the parts stage_coeff_to_slot returns");
    Ciphertext w = parts[0];
    if (!packed_) {
        Ciphertext im = eval_.mult_by_i(parts[1]);
        eval_.drop_level_inplace(w, std::min(w.level, im.level));
        eval_.drop_level_inplace(im, w.level);
        w.b.add_inplace(im.b);
        w.a.add_inplace(im.a);
    }
    return stc_->apply(eval_, w, *rot_keys_);
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext& ct) const
{
    BTS_TRACE_SPAN(kBootstrap, "bootstrap");
    BTS_CHECK(mult_key_ && rot_keys_ && conj_key_,
              "bootstrapper keys not installed (call set_keys)");
    BTS_CHECK(ct.slots == config_.slots,
              "ciphertext packing does not match the bootstrapper");

    Ciphertext raised = stage_raise_and_subsum(ct);
    std::vector<Ciphertext> parts = stage_coeff_to_slot(raised);
    for (Ciphertext& part : parts) part = stage_eval_mod(part);
    Ciphertext out = stage_slot_to_coeff(parts);

    if (config_.normalize_output_scale && out.level >= 1) {
        out = eval_.mult_const_to_scale(out, 1.0, ctx_.delta());
    }
    BTS_ASSERT(out.level == output_level_,
               "bootstrap refreshed to level " << out.level
                                               << ", output_level() says "
                                               << output_level_);
    return out;
}

} // namespace bts
