/**
 * @file
 * Outside-in layer tracing. The benchmark records its own spans around
 * every public call it makes into a layer (SpanRecorder), reads the
 * spans the program already emits through the public obs tracer, and
 * attaches every span to its innermost enclosing span by time
 * containment. A span's self time is its duration minus its children's;
 * each span name maps to one layer, so layer self times plus an
 * unattributed remainder add up to the traced wall time.
 */

#ifndef PERFBENCH_ATTRIBUTION_H
#define PERFBENCH_ATTRIBUTION_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One timed interval on the obs tracer's clock (microseconds). */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    /**
     * Enclosing span (index into the same list, -1 for a root). The
     * recorder sets it for benchmark spans; attribute() recomputes it
     * for every span by time containment.
     */
    int parent = -1;
    /** Serve request id carried by benchmark spans (-1: none). */
    std::int64_t requestId = -1;
    /** Numeric span args (program spans). */
    std::vector<std::pair<std::string, double>> args;

    double durationUs() const { return endUs - startUs; }
    /** The arg named @p key, or @p fallback. */
    double arg(const std::string &key, double fallback) const;
};

/**
 * In-memory recorder of the benchmark's own spans. Disabled recorders
 * do nothing (no clock read), so untraced runs share the code path.
 * Single-threaded: spans nest as a stack.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its index (-1 when disabled). */
    int open(const char *name, std::int64_t requestId = -1);

    /** Close span @p index (the innermost open one). */
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on a SpanRecorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name,
               std::int64_t requestId = -1)
        : recorder_(recorder), index_(recorder.open(name, requestId))
    {
    }
    ~ScopedSpan() { recorder_.close(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder_;
    int index_;
};

/**
 * The program's own spans and counters, read through the public obs
 * API. Recording is off until setActive(true); toggling per call lets
 * a traced pass interleave with an untraced twin at request (or step)
 * granularity, so machine-speed drift hits both alike.
 */
class ProgramTrace
{
  public:
    /** Buffer spans for @p path (flushed there by read()); drops any
     * spans buffered before. */
    explicit ProgramTrace(std::string path);
    ~ProgramTrace();

    ProgramTrace(const ProgramTrace &) = delete;
    ProgramTrace &operator=(const ProgramTrace &) = delete;

    /** Turn the program's span and metric recording on or off. */
    void setActive(bool on);

    /** Flush the buffered spans and read them back. */
    std::vector<Span> read();

  private:
    std::string path_;
};

/** Layer times of one traced pass. */
struct LayerTimes
{
    /** Self seconds per layer metric name (e.g. "serve.parse_self_s"). */
    std::map<std::string, double> selfSeconds;
    /** Span count per layer metric name. */
    std::map<std::string, std::int64_t> spans;
    /** Sum of selfSeconds. */
    double attributedSeconds = 0.0;
};

/**
 * Layer metric of span @p index: its name's layer, except that a
 * water-filling solve belongs to the nearest enclosing context estimate
 * (core.*) or network-model call (sim.refresh_self_s) and is a cold
 * solve (waterfill.cold_self_s) otherwise. Empty for unknown names.
 * Requires parents set (attribute()).
 */
std::string layerOf(const std::vector<Span> &spans, int index);

/**
 * Sort @p spans by start time, set every parent to the innermost span
 * that contains it in time, and sum self times (duration minus the
 * children's durations) per layer.
 */
LayerTimes attribute(std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_ATTRIBUTION_H
