/**
 * @file
 * The benchmark's workloads and the metric sheets they fill. Every
 * workload reports every metric of the sheet for its mode, so one name
 * has one meaning and one unit everywhere; a per-layer metric of a
 * layer the workload never runs reads 0.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "attribution.h"
#include "measure.h"

namespace perfbench {

/** Name and unit of one reported metric. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced runs), in report order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics (traced runs), in report order. */
const std::vector<MetricDef> &perLayerMetrics();

/** A full metric sheet: every metric present, 0 until set. */
class MetricSheet
{
  public:
    explicit MetricSheet(const std::vector<MetricDef> &defs);

    /** Set @p name (InternalError for a name not on the sheet). */
    void set(const std::string &name, double value);

    /** Set every `*_self_s` layer metric from @p times. */
    void setLayerTimes(const LayerTimes &times);

    /** Append the sheet to @p result in report order. */
    void appendTo(Result &result) const;

  private:
    const std::vector<MetricDef> &defs_;
    std::vector<double> values_;
};

/** Run @p options.workload (ConfigError for an unknown name). */
Result runWorkload(const Options &options);

/** serve-place (@p mixed false) and serve-mixed (@p mixed true). */
Result runServe(const Options &options, bool mixed);

/** sim-fig9. */
Result runSimFig9(const Options &options);

/** Durations (µs) of the spans named @p name. */
std::vector<double> spanDurationsUs(const std::vector<Span> &spans,
                                    const std::string &name);

/** Number of spans named @p name and the sum of their @p arg values. */
std::pair<std::int64_t, double> spanArgSum(const std::vector<Span> &spans,
                                           const std::string &name,
                                           const std::string &arg);

/** Set the span-derived placement/water-filling/core metrics. */
void setPlacementLayerCounts(MetricSheet &sheet,
                             const std::vector<Span> &spans,
                             const LayerTimes &times);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
