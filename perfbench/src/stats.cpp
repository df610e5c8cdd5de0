#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.h"

namespace perfbench {

double
since(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double>& v)
{
    if (v.empty()) return 0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
overhead_share(const std::vector<double>& traced,
               const std::vector<double>& untraced)
{
    if (traced.empty() || untraced.empty()) return 0;
    return median(traced) / median(untraced) - 1.0;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB -> MB
}

u64
digest_bytes(u64 h, const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
put_single_class(Outcome& out, double p50_ms)
{
    for (const char* name : {"cheap_p50_ms", "heavy_p50_ms", "heavy_p90_ms"}) {
        out.end_to_end[name] = {p50_ms, "ms"};
    }
}

} // namespace perfbench
