#include "measure.h"

#include <algorithm>

#include <sys/resource.h>

#include "common/check.h"
#include "common/stats.h"
#include "obs/json.h"

namespace perfbench {

void
printResult(std::ostream &out, const Result &result)
{
    netpack::obs::JsonWriter json(out, /*indent=*/0);
    json.beginObject();
    json.kv("correct", result.correct);
    json.kv("attempted", result.attempted);
    json.kv("failed", result.failed);
    json.key("metrics");
    json.beginObject();
    for (const Metric &metric : result.metrics) {
        json.key(metric.name);
        json.beginObject();
        json.kv("value", metric.value);
        json.kv("unit", metric.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    out << "\n";
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    const double beyond =
        static_cast<double>(samples.size()) * (100.0 - p) / 100.0;
    if (samples.empty() ||
        beyond + 1e-9 < static_cast<double>(kMinTailSamples))
        return std::nullopt;
    netpack::SampleSet set;
    for (double x : samples)
        set.add(x);
    return set.percentile(p);
}

double
requirePercentile(const std::vector<double> &samples, double p,
                  const std::string &what)
{
    const std::optional<double> value = percentile(samples, p);
    NETPACK_REQUIRE(value.has_value(),
                    what << ": p" << p << " needs "
                         << kMinTailSamples << " samples beyond it, have "
                         << samples.size() << " samples in total");
    return *value;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    netpack::SampleSet set;
    for (double x : samples)
        set.add(x);
    return set.median();
}

OpenLoopTimes
openLoopTimes(const std::vector<OpenLoopSample> &samples)
{
    OpenLoopTimes times;
    times.latencyMs.reserve(samples.size());
    times.lateMs.reserve(samples.size());
    for (const OpenLoopSample &s : samples) {
        times.latencyMs.push_back((s.doneS - s.dueS) * 1e3);
        times.lateMs.push_back(std::max(0.0, s.sentS - s.dueS) * 1e3);
    }
    return times;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
