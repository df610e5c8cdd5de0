/**
 * @file
 * Shared pieces of the end-to-end benchmark: arguments, the outcome a
 * workload hands back, sample statistics, set-up timing and process
 * memory.
 *
 * Every workload drives the library from outside, through its public
 * API only (GraphServer, Executor, Bootstrapper, lower_to_trace,
 * BtsSimulator); see METHODOLOGY.md for what each one measures and why.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace perfbench {

using bts::u64;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);
/** Seconds between two time points. */
double seconds(Clock::time_point t0, Clock::time_point t1);

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 0; //!< measured window
    bool trace = false; //!< per-layer run instead of the timed run
};

struct Metric
{
    double value = 0;
    std::string unit;
};

/** What one workload run hands back to main(). */
struct Outcome
{
    std::size_t attempted = 0;
    /** Exceptions + refusals + failed output checks. */
    std::size_t failed = 0;
    /** Gated end-to-end metrics (timed runs). */
    std::map<std::string, Metric> end_to_end;
    /** Per-layer metrics (traced runs); unlisted ones print as 0. */
    std::map<std::string, Metric> per_layer;
    /** The workload's headline numbers under their own names, printed
     *  in the human-readable report ahead of the JSON line. */
    std::vector<std::pair<std::string, Metric>> report;
    /** Digest of the seeded inputs (schedule, payloads, ciphertexts). */
    u64 input_digest = 0;
    /** Why correct is false beyond failed jobs (empty = fine). */
    std::string error;
};

/** Nearest-rank percentile, @p p in [0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/** Median traced over median untraced latency, minus one; 0 unless
 *  both samples are non-empty. */
double overhead_share(const std::vector<double>& traced,
                      const std::vector<double>& untraced);

/** Peak resident set size of this process, in MB (1e6 bytes). */
double peak_rss_mb();

/** FNV-1a over raw bytes, chained through @p h. */
u64 digest_bytes(u64 h, const void* data, std::size_t len);

/**
 * Builds a fresh @p Env @p count times into @p env, appending each
 * set-up's seconds to @p took. The previous Env is destroyed first, so
 * only one is ever resident; the last one stays in @p env.
 */
template <class Env, class Make>
void
timed_setups(int count, Make make, std::unique_ptr<Env>& env,
             std::vector<double>& took)
{
    for (int i = 0; i < count; ++i) {
        env.reset();
        const Clock::time_point t0 = Clock::now();
        env = make();
        took.push_back(since(t0));
    }
}

/**
 * A closed loop of @p window_s seconds: one job at a time, with
 * @p setups fresh set-ups at evenly spaced points of the window (the
 * first at its start). Set-up, like every timing on a host whose speed
 * drifts over seconds, is only steady as a median of samples spread
 * over the whole run, not bunched at its start. Runs at least one job.
 * Returns the median set-up seconds; @p env holds the last set-up.
 */
template <class Env, class Make, class Job>
double
closed_loop(double window_s, int setups, Make make, Job job,
            std::unique_ptr<Env>& env)
{
    std::vector<double> took;
    std::size_t jobs = 0;
    const Clock::time_point start = Clock::now();
    while (since(start) < window_s || jobs == 0) {
        // Set-ups due by now: one at the start, one more per 1/setups
        // of the window.
        const auto due = std::min(
            static_cast<std::size_t>(setups),
            1 + static_cast<std::size_t>(setups * since(start) / window_s));
        if (took.size() < due) {
            timed_setups(1, make, env, took);
            continue;
        }
        job(*env);
        ++jobs;
    }
    return median(took);
}

/** Class metrics of the gated set for a workload with one job class:
 *  its median stands in for both classes and the heavy tail (a
 *  one-class closed loop has too few jobs for any tail; METHODOLOGY.md). */
void put_single_class(Outcome& out, double p50_ms);

Outcome run_boot_tmult(const Args& args);
Outcome run_serve_mix(const Args& args);
Outcome run_sim_paper(const Args& args);

} // namespace perfbench
