#include "attribution.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

/**
 * Containment slack (µs): program spans are read back as start +
 * duration, which can differ from the recorded end by rounding.
 */
constexpr double kSlackUs = 1e-3;

bool
contains(const Span &outer, const Span &inner)
{
    return inner.startUs >= outer.startUs - kSlackUs &&
           inner.endUs <= outer.endUs + kSlackUs;
}

/** Span name → layer metric; water-filling solves are resolved by
 * ancestry in layerOf(). */
const std::map<std::string, std::string> &
layerNames()
{
    static const std::map<std::string, std::string> names = {
        {"serve.request", "serve.dispatch_self_s"},
        {"serve.parse", "serve.parse_self_s"},
        {"serve.validate", "serve.validate_self_s"},
        {"serve.wal_append", "serve.wal_append_self_s"},
        {"serve.place", "serve.place_self_s"},
        {"serve.depart", "serve.depart_self_s"},
        {"serve.query", "serve.query_self_s"},
        {"serve.stats", "serve.stats_self_s"},
        {"serve.encode", "serve.encode_self_s"},
        {"placement.batch", "placement.batch_self_s"},
        {"placement.knapsack", "placement.knapsack_self_s"},
        {"placement.worker_dp", "placement.worker_dp_self_s"},
        {"placement.ps_scoring", "placement.ps_scoring_self_s"},
        {"placement.selective_ina", "placement.selective_ina_self_s"},
        {"placement.ina_ae_ranking", "placement.ina_ranking_self_s"},
        {"waterfill.incremental_estimate", "core.incremental_self_s"},
        {"waterfill.full_estimate", "core.full_self_s"},
        {"sim.step", "sim.loop_self_s"},
        {"sim.epoch", "sim.loop_self_s"},
        {"sim.place", "sim.place_self_s"},
        {"sim.advance", "sim.advance_self_s"},
        {"sim.model_events", "sim.model_events_self_s"},
    };
    return names;
}

} // namespace

double
Span::arg(const std::string &key, double fallback) const
{
    for (const auto &[k, v] : args) {
        if (k == key)
            return v;
    }
    return fallback;
}

int
SpanRecorder::open(const char *name, std::int64_t requestId)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.startUs = netpack::obs::traceNowMicros();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.requestId = requestId;
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    if (index < 0)
        return;
    NETPACK_CHECK(!stack_.empty() && stack_.back() == index);
    spans_[static_cast<std::size_t>(index)].endUs =
        netpack::obs::traceNowMicros();
    stack_.pop_back();
}

ProgramTrace::ProgramTrace(std::string path) : path_(std::move(path))
{
    netpack::obs::clearTrace();
    setActive(false);
}

ProgramTrace::~ProgramTrace()
{
    setActive(false);
}

void
ProgramTrace::setActive(bool on)
{
    netpack::obs::configureTrace(on ? path_ : std::string());
    netpack::obs::setMetricsEnabled(on);
}

std::vector<Span>
ProgramTrace::read()
{
    netpack::obs::configureTrace(path_);
    netpack::obs::flushTrace();
    setActive(false);
    std::ifstream in(path_);
    NETPACK_REQUIRE(in.good(), "cannot read program trace " << path_);
    std::stringstream text;
    text << in.rdbuf();
    const netpack::obs::JsonValue doc =
        netpack::obs::parseJson(text.str());

    std::vector<Span> spans;
    for (const netpack::obs::JsonValue &event :
         doc.at("traceEvents").items()) {
        Span span;
        span.name = event.at("name").asString();
        span.startUs = event.at("ts").asDouble();
        span.endUs = span.startUs + event.at("dur").asDouble();
        if (const netpack::obs::JsonValue *args = event.find("args")) {
            for (const auto &[key, value] : args->members())
                span.args.emplace_back(key, value.asDouble());
        }
        spans.push_back(std::move(span));
    }
    return spans;
}

std::string
layerOf(const std::vector<Span> &spans, int index)
{
    const Span &span = spans[static_cast<std::size_t>(index)];
    if (span.name == "waterfill.estimate") {
        for (int up = span.parent; up >= 0;
             up = spans[static_cast<std::size_t>(up)].parent) {
            const std::string &name = spans[static_cast<std::size_t>(up)].name;
            if (name == "waterfill.incremental_estimate")
                return "core.incremental_self_s";
            if (name == "waterfill.full_estimate")
                return "core.full_self_s";
            if (name == "sim.advance" || name == "sim.model_events")
                return "sim.refresh_self_s";
        }
        return "waterfill.cold_self_s";
    }
    const auto it = layerNames().find(span.name);
    return it == layerNames().end() ? std::string() : it->second;
}

LayerTimes
attribute(std::vector<Span> &spans)
{
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span &a, const Span &b) {
                         if (a.startUs != b.startUs)
                             return a.startUs < b.startUs;
                         return a.endUs > b.endUs; // outer first
                     });
    std::vector<int> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        while (!stack.empty() &&
               !contains(spans[static_cast<std::size_t>(stack.back())],
                         spans[i]))
            stack.pop_back();
        spans[i].parent = stack.empty() ? -1 : stack.back();
        stack.push_back(static_cast<int>(i));
    }

    std::vector<double> selfUs(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        selfUs[i] = spans[i].durationUs();
    for (const Span &span : spans) {
        if (span.parent >= 0)
            selfUs[static_cast<std::size_t>(span.parent)] -=
                span.durationUs();
    }

    LayerTimes times;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string layer = layerOf(spans, static_cast<int>(i));
        if (layer.empty())
            continue;
        times.selfSeconds[layer] += selfUs[i] * 1e-6;
        ++times.spans[layer];
        times.attributedSeconds += selfUs[i] * 1e-6;
    }
    return times;
}

} // namespace perfbench
