#include "ckks/bootstrapper.h"

#include <cmath>
#include <set>

#include "common/bit_ops.h"
#include "common/check.h"
#include "runtime/telemetry/trace.h"

namespace bts {

namespace {

/** N/2 / slots, once slots is checked (0 would divide by zero). */
std::size_t
gap_for(const CkksContext& ctx, std::size_t slots)
{
    BTS_CHECK(is_power_of_two(slots) && slots <= ctx.n() / 2,
              "slots must be a power of two <= N/2");
    return ctx.n() / 2 / slots;
}

/** The smallest r with K + 1/4 <= 2^(r+1): the series then spans at
 *  most two periods of its cosine on each side of 0. */
int
double_angles_for(double k_range)
{
    BTS_CHECK(std::isfinite(k_range) && k_range > 0.0,
              "k_range must be positive and finite, got " << k_range);
    int r = 0;
    while (k_range + 0.25 > std::ldexp(2.0, r)) ++r;
    return r;
}

/** cos(2*pi*x/2^r) on [-(K+1/4), K+1/4]: even on a symmetric interval,
 *  so its odd coefficients are exact zeros. */
ChebyshevSeries
cos_series_for(double k_range, int r)
{
    const double period = std::ldexp(1.0, r);
    const double bound = k_range + 0.25;
    return ChebyshevSeries::interpolate(
        [period](double x) { return std::cos(2.0 * M_PI * x / period); },
        -bound, bound, Bootstrapper::kSeriesDegree);
}

} // namespace

Bootstrapper::Bootstrapper(const CkksContext& ctx, const CkksEncoder& encoder,
                           const Evaluator& eval,
                           const BootstrapConfig& config)
    : ctx_(ctx),
      encoder_(encoder),
      eval_(eval),
      config_(config),
      gap_(gap_for(ctx, config.slots)),
      packed_(2 * config.slots <= ctx.n() / 2),
      double_angles_(double_angles_for(config.k_range)),
      cos_series_(cos_series_for(config.k_range, double_angles_))
{
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
    // reaches after CtS and EvalMod (the series' levels come from the
    // walk its evaluation runs, plus one per double angle), so
    // required_rotations() is exact from construction.
    const int eval_mod_levels =
        ChebyshevEvaluator::levels(cos_series_) + double_angles_;
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

    // Scale plan. The last double angle leaves sin(2*pi*u), about
    // 2*pi*gap*Delta*m/q0 in value; at scale q0/(2*pi*gap) its slots
    // read m at exactly Delta, which StC keeps. A double angle at
    // level l squares its input's scale s and rescales by q_l, so walk
    // back s = sqrt(s' * q_l) through the squarings to the scale the
    // series must land on.
    const double q0 = static_cast<double>(ctx_.q_primes()[0]);
    series_scale_ = q0 / (2.0 * M_PI * static_cast<double>(gap_));
    for (int level = stc_input_level_ + 1;
         level <= stc_input_level_ + double_angles_; ++level) {
        series_scale_ = std::sqrt(
            series_scale_ * static_cast<double>(ctx_.q_primes()[level]));
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
    // sin(2*pi*u) = cos(2*pi*(u - 1/4)); the shift is a free CAdd.
    Ciphertext x = u;
    eval_.add_const_inplace(x, Complex(-0.25, 0.0));
    Ciphertext c = ChebyshevEvaluator(eval_).evaluate(x, cos_series_,
                                                      *mult_key_,
                                                      series_scale_);
    // r double angles take cos(2*pi*x/2^r) to cos(2*pi*x). The product
    // doubles by adding itself (no level); the -1 is added after the
    // rescale, since at the squared scale it would overflow the 62-bit
    // constant encoder.
    for (int k = 0; k < double_angles_; ++k) {
        Ciphertext sq = eval_.square(c, *mult_key_);
        sq.b.add_inplace(sq.b);
        sq.a.add_inplace(sq.a);
        eval_.rescale_inplace(sq);
        eval_.add_const_inplace(sq, Complex(-1.0, 0.0));
        c = std::move(sq);
    }
    // c is sin(2*pi*u) at the constructor's planned scale, which reads
    // the message coefficients at Delta: state it exactly (the plan's
    // square roots round below an ulp per step).
    const double q0 = static_cast<double>(ctx_.q_primes()[0]);
    const double read =
        c.scale * 2.0 * M_PI * static_cast<double>(gap_) * ctx_.delta() / q0;
    BTS_ASSERT(std::abs(read / ctx_.delta() - 1.0) < 1e-9,
               "EvalMod left scale " << read << ", planned " << ctx_.delta());
    c.scale = ctx_.delta();
    return c;
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
    BTS_ASSERT(out.level == output_level_,
               "bootstrap refreshed to level " << out.level
                                               << ", output_level() says "
                                               << output_level_);
    return out;
}

} // namespace bts
