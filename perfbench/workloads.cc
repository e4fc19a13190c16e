#include "workloads.h"

#include "common/check.h"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"jobs_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"serve.wait_p50_us", "us"},
        {"serve.dispatch_self_s", "s"},
        {"serve.parse_self_s", "s"},
        {"serve.validate_self_s", "s"},
        {"serve.wal_append_self_s", "s"},
        {"serve.place_p50_us", "us"},
        {"serve.place_self_s", "s"},
        {"serve.depart_self_s", "s"},
        {"serve.query_p50_us", "us"},
        {"serve.query_self_s", "s"},
        {"serve.stats_p50_us", "us"},
        {"serve.stats_self_s", "s"},
        {"serve.encode_self_s", "s"},
        {"placement.batches", "count"},
        {"placement.jobs_per_batch", "jobs"},
        {"placement.batch_self_s", "s"},
        {"placement.knapsack_self_s", "s"},
        {"placement.worker_dp_self_s", "s"},
        {"placement.ps_scoring_self_s", "s"},
        {"placement.selective_ina_self_s", "s"},
        {"placement.ina_ranking_self_s", "s"},
        {"placement.ina_ranking_calls", "count"},
        {"placement.single_server_share", "1"},
        {"placement.dp_states_pruned", "count"},
        {"waterfill.cold_solves", "count"},
        {"waterfill.cold_self_s", "s"},
        {"core.incremental_solves", "count"},
        {"core.incremental_self_s", "s"},
        {"core.jobs_reconverged", "count"},
        {"core.full_estimates", "count"},
        {"core.full_self_s", "s"},
        {"sim.steps", "count"},
        {"sim.loop_self_s", "s"},
        {"sim.rounds", "count"},
        {"sim.place_s", "s"},
        {"sim.place_self_s", "s"},
        {"sim.advance_self_s", "s"},
        {"sim.refresh_self_s", "s"},
        {"sim.model_events_self_s", "s"},
        {"sim.avg_jct_s", "s"},
        {"sim.avg_de", "1"},
        {"cluster.gpu_busy_share", "1"},
        {"cluster.running_jobs", "jobs"},
        {"loadgen.req_per_s", "1/s"},
        {"loadgen.place_p50_ms", "ms"},
        {"loadgen.place_p99_ms", "ms"},
        {"loadgen.query_p50_ms", "ms"},
        {"loadgen.query_p95_ms", "ms"},
        {"loadgen.late_p95_ms", "ms"},
        {"trace.wall_s", "s"},
        {"trace.unattributed_s", "s"},
        {"trace.overhead_frac", "1"},
    };
    return defs;
}

MetricSheet::MetricSheet(const std::vector<MetricDef> &defs)
    : defs_(defs), values_(defs.size(), 0.0)
{
}

void
MetricSheet::set(const std::string &name, double value)
{
    for (std::size_t i = 0; i < defs_.size(); ++i) {
        if (name == defs_[i].name) {
            values_[i] = value;
            return;
        }
    }
    NETPACK_CHECK_MSG(false, "metric " << name << " is not on the sheet");
}

void
MetricSheet::setLayerTimes(const LayerTimes &times)
{
    for (const auto &[layer, seconds] : times.selfSeconds)
        set(layer, seconds);
}

void
MetricSheet::appendTo(Result &result) const
{
    for (std::size_t i = 0; i < defs_.size(); ++i)
        result.add(defs_[i].name, values_[i], defs_[i].unit);
}

Result
runWorkload(const Options &options)
{
    if (options.workload == "serve-place")
        return runServe(options, /*mixed=*/false);
    if (options.workload == "serve-mixed")
        return runServe(options, /*mixed=*/true);
    if (options.workload == "sim-fig9")
        return runSimFig9(options);
    throw netpack::ConfigError("unknown workload '" + options.workload +
                               "' (serve-place, serve-mixed, sim-fig9)");
}

std::vector<double>
spanDurationsUs(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &span : spans) {
        if (span.name == name)
            out.push_back(span.durationUs());
    }
    return out;
}

std::pair<std::int64_t, double>
spanArgSum(const std::vector<Span> &spans, const std::string &name,
           const std::string &arg)
{
    std::int64_t count = 0;
    double sum = 0.0;
    for (const Span &span : spans) {
        if (span.name == name) {
            ++count;
            sum += span.arg(arg, 0.0);
        }
    }
    return {count, sum};
}

void
setPlacementLayerCounts(MetricSheet &sheet, const std::vector<Span> &spans,
                        const LayerTimes &times)
{
    sheet.setLayerTimes(times);
    const auto [batches, batchJobs] =
        spanArgSum(spans, "placement.batch", "batch");
    sheet.set("placement.batches", static_cast<double>(batches));
    sheet.set("placement.jobs_per_batch",
              batches > 0 ? batchJobs / static_cast<double>(batches) : 0.0);
    sheet.set("placement.ina_ranking_calls",
              static_cast<double>(
                  spanDurationsUs(spans, "placement.ina_ae_ranking").size()));
    const auto cold = times.spans.find("waterfill.cold_self_s");
    sheet.set("waterfill.cold_solves",
              cold == times.spans.end() ? 0.0
                                        : static_cast<double>(cold->second));
    const auto [incremental, reconverged] = spanArgSum(
        spans, "waterfill.incremental_estimate", "component_jobs");
    sheet.set("core.incremental_solves", static_cast<double>(incremental));
    sheet.set("core.jobs_reconverged", reconverged);
    sheet.set("core.full_estimates",
              static_cast<double>(
                  spanDurationsUs(spans, "waterfill.full_estimate").size()));
}

} // namespace perfbench
