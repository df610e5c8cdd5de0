/**
 * The disabled-path overhead bound of the tracing core
 * (runtime/telemetry/): with the hooks compiled in but
 * runtime-disabled, an instrumented kernel must stay within noise of
 * the uninstrumented one.
 *
 * This is a wall-clock comparison, so it is its own test binary,
 * registered RUN_SERIAL: under a parallel ctest other suites compete
 * for the cores and skew the two timed arms differently.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "math/ntt.h"
#include "math/prime_gen.h"
#include "rns/rns_poly.h"
#include "runtime/telemetry/trace.h"

namespace bts::runtime::telemetry {
namespace {

void
quiesce_and_reset()
{
    set_enabled(0);
    set_thread_buffer_capacity(65536);
    reset_trace();
}

TEST(Overhead, DisabledHooksStayWithinNoiseOfRawKernel)
{
    // The acceptance bound: with BTS_TELEMETRY compiled
    // in but runtime-disabled (the state every production run pays),
    // RnsPoly::to_ntt — which carries the span macro — must stay
    // within 2% of driving ntt_forward_batch directly.
    quiesce_and_reset();
    const std::size_t n = 1 << 14;
    const int limbs = 8;
    const std::vector<u64> primes = generate_ntt_primes(50, 2 * n, limbs);
    std::vector<NttTables> tables;
    tables.reserve(primes.size());
    for (const u64 q : primes) tables.emplace_back(n, q);
    std::vector<const NttTables*> table_ptrs;
    for (const auto& t : tables) table_ptrs.push_back(&t);

    Sampler s(11);
    RnsPoly poly(n, primes, Domain::kCoeff);
    for (int i = 0; i < limbs; ++i) {
        poly.component(i).copy_from(s.uniform_poly(n, primes[i]));
    }

    const auto raw_body = [&] {
        ntt_forward_batch(table_ptrs, poly.component(0).data(),
                          static_cast<std::size_t>(limbs), n);
    };
    const auto hooked_body = [&] {
        poly.to_ntt(table_ptrs);
        poly.set_domain(Domain::kCoeff);
    };
    using SteadyClock = std::chrono::steady_clock;
    const auto time_call = [](auto&& body) {
        const auto t0 = SteadyClock::now();
        body();
        return std::chrono::duration<double>(SteadyClock::now() - t0)
            .count();
    };

    // Warm caches/pages once on each path before timing.
    hooked_body();
    raw_body();

    // A shared host changes speed by far more than 2% within one run,
    // in bursts shorter than a call and in stretches longer than many,
    // so a minimum over each arm's trials can land in a fast stretch
    // only one arm saw. Instead the arms are timed in adjacent pairs,
    // one call each, the order alternating from pair to pair, and the
    // bound holds the median of the per-pair ratios: a slow stretch
    // scales both halves of a pair alike, and bursts are outliers the
    // median ignores.
    constexpr int kPairs = 512;
    std::vector<double> ratios;
    ratios.reserve(kPairs);
    double raw_total = 0;
    double hooked_total = 0;
    for (int p = 0; p < kPairs; ++p) {
        double raw = 0;
        double hooked = 0;
        if (p % 2 == 0) {
            raw = time_call(raw_body);
            hooked = time_call(hooked_body);
        } else {
            hooked = time_call(hooked_body);
            raw = time_call(raw_body);
        }
        ratios.push_back(hooked / raw);
        raw_total += raw;
        hooked_total += hooked;
    }
    std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2,
                     ratios.end());
    const double ratio = ratios[kPairs / 2];

    ASSERT_EQ(collect_trace().total_events(), 0u)
        << "runtime-disabled hooks must not emit";
    printf("[measured] disabled-telemetry to_ntt / raw ntt = %.4f, "
           "median of %d paired calls (mean raw %.3f ms, hooked %.3f ms)\n",
           ratio, kPairs, raw_total / kPairs * 1e3,
           hooked_total / kPairs * 1e3);
    EXPECT_LT(ratio, 1.02);
}

} // namespace
} // namespace bts::runtime::telemetry
