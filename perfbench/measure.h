/**
 * @file
 * Measurement helpers shared by the benchmark workloads: the run
 * options, the one-line JSON result, percentiles that refuse to report
 * a tail without enough samples beyond it, open-loop latency from
 * scheduled send times, and process peak RSS.
 */

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics instead of end-to-end. */
    bool trace = false;
    /** Work directory for WALs and trace files (created, removed). */
    std::string workDir;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one run: the benchmark's last stdout line. */
struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one attempted operation; @p ok false marks it failed. */
    void attempt(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Print @p result as one compact JSON line (full double precision). */
void printResult(std::ostream &out, const Result &result);

/** Samples needed beyond a reported tail percentile. */
inline constexpr std::size_t kMinTailSamples = 10;

/**
 * The @p p-th percentile (linear interpolation between closest ranks)
 * of @p samples, or nullopt unless at least kMinTailSamples samples lie
 * beyond it — a p99 needs 1,000 samples.
 */
std::optional<double> percentile(std::vector<double> samples, double p);

/** percentile(), or a ConfigError naming @p what when unreportable. */
double requirePercentile(const std::vector<double> &samples, double p,
                         const std::string &what);

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

/** One open-loop request: when it was due, sent, and answered. */
struct OpenLoopSample
{
    double dueS = 0.0;
    double sentS = 0.0;
    double doneS = 0.0;
};

/** Latency and lateness of open-loop requests, in milliseconds. */
struct OpenLoopTimes
{
    /** Answer time minus the scheduled send time: a stall that delays
     * later sends is charged to them too. */
    std::vector<double> latencyMs;
    /** How far behind its schedule the generator sent each request. */
    std::vector<double> lateMs;
};

OpenLoopTimes openLoopTimes(const std::vector<OpenLoopSample> &samples);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Seconds on the monotonic clock since an arbitrary fixed epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The monotonic-clock instant @p seconds (a nowSeconds() reading). */
inline std::chrono::steady_clock::time_point
atSeconds(double seconds)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds)));
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
