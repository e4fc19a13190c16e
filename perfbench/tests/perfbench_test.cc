/**
 * @file
 * Tests of the benchmark's own code: deterministic request streams,
 * the tail-percentile rule, open-loop timing, transparent simulator
 * decorators, and span attribution.
 */

#include <gtest/gtest.h>

#include <set>

#include "attribution.h"
#include "measure.h"
#include "placement/baselines.h"
#include "serve/engine.h"
#include "serve_load.h"
#include "sim/cluster_sim.h"
#include "sim/flow_model.h"
#include "sim_workload.h"
#include "workload/models.h"
#include "workload/trace_gen.h"

namespace perfbench {
namespace {

using namespace netpack;

serve::EngineConfig
smallEngine()
{
    serve::EngineConfig config;
    config.cluster.numRacks = 4;
    config.cluster.serversPerRack = 4;
    config.cluster.gpusPerServer = 4;
    return config;
}

/** Drive a manager stream against an in-process engine; returns the
 * serialized requests. Fails the test on a depart of an unplaced job. */
std::vector<std::string>
driveManager(std::uint64_t seed, int requests)
{
    serve::PlacementEngine engine(smallEngine());
    ManagerStream stream(seed, engine.topology().totalGpus());
    std::vector<std::string> lines;
    for (int k = 0; k < requests; ++k) {
        const serve::Request request = stream.next();
        lines.push_back(serve::serializeRequest(request));
        serve::Response response;
        response.ok = true;
        if (request.op == serve::Op::Place) {
            BatchResult result = engine.applyPlace(request.jobs);
            response.placed = std::move(result.placed);
            response.deferred = std::move(result.deferred);
        } else {
            for (JobId id : request.departs)
                EXPECT_TRUE(engine.context().tracks(id))
                    << "request " << k << " departs unplaced job "
                    << id.value;
            engine.applyDepart(request.departs);
        }
        stream.onResponse(request, response);
        EXPECT_EQ(stream.busyGpus(),
                  engine.topology().totalGpus() - engine.freeGpus());
    }
    return lines;
}

TEST(ManagerStream, IsAPureFunctionOfTheSeed)
{
    const std::vector<std::string> a = driveManager(7, 400);
    EXPECT_EQ(a, driveManager(7, 400));
    EXPECT_NE(a, driveManager(8, 400));
}

TEST(ManagerStream, HoldsOccupancyAndNeverDepartsAnUnplacedJob)
{
    const std::vector<std::string> lines = driveManager(3, 600);
    std::int64_t departs = 0;
    for (const std::string &line : lines)
        departs += serve::parseRequest(line).op == serve::Op::Depart;
    // From an empty cluster it first fills to 70 %, then alternates.
    EXPECT_GT(departs, 100);
}

TEST(ManagerStream, PlacesUntilSeventyPercentBusy)
{
    ManagerStream stream(1, 100);
    EXPECT_TRUE(stream.placesNext());
    serve::Request request = stream.next();
    serve::Response response;
    response.ok = true;
    PlacedJob placed;
    placed.id = request.jobs.front().id;
    placed.placement.workers[ServerId(0)] = 70;
    response.placed.push_back(placed);
    stream.onResponse(request, response);
    EXPECT_FALSE(stream.placesNext()); // 30 % free: depart next
    request = stream.next();
    ASSERT_EQ(request.op, serve::Op::Depart);
    EXPECT_EQ(request.departs.front(), placed.id);
}

TEST(ReaderSchedule, IsDeterministicEvenAndFixedInCount)
{
    const auto a = readerSchedule(5, 10.0, 30.0, 15.0);
    const auto b = readerSchedule(5, 10.0, 30.0, 15.0);
    ASSERT_EQ(a.size(), 450u);
    ASSERT_EQ(a.size(), b.size());
    std::size_t stats = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(serve::serializeRequest(a[i].request),
                  serve::serializeRequest(b[i].request));
        EXPECT_LT(a[i].dueS, 10.0);
        if (i > 0) {
            EXPECT_NEAR(a[i].dueS - a[i - 1].dueS, 1.0 / 45.0, 1e-12);
        }
        stats += a[i].request.op == serve::Op::Stats;
    }
    EXPECT_EQ(stats, 150u);
    EXPECT_NE(serve::serializeRequest(a[0].request),
              serve::serializeRequest(readerSchedule(6, 10.0, 30.0, 15.0)[0]
                                          .request));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt)
{
    std::vector<double> samples;
    for (int i = 0; i < 999; ++i)
        samples.push_back(i);
    EXPECT_FALSE(percentile(samples, 99.0).has_value());
    EXPECT_TRUE(percentile(samples, 95.0).has_value());
    samples.push_back(999);
    ASSERT_TRUE(percentile(samples, 99.0).has_value());
    EXPECT_NEAR(*percentile(samples, 99.0), 989.01, 1e-9);
    EXPECT_FALSE(percentile({1.0, 2.0, 3.0}, 50.0).has_value());
    EXPECT_THROW(requirePercentile({1.0}, 50.0, "x"), ConfigError);
}

TEST(OpenLoop, LatencyAndLatenessCountFromTheSchedule)
{
    // Due at 1.0 but sent 0.5 s late behind a stall, answered at 1.6.
    const OpenLoopTimes times =
        openLoopTimes({{1.0, 1.5, 1.6}, {2.0, 2.0, 2.01}});
    EXPECT_NEAR(times.latencyMs[0], 600.0, 1e-9);
    EXPECT_NEAR(times.lateMs[0], 500.0, 1e-9);
    EXPECT_NEAR(times.latencyMs[1], 10.0, 1e-9);
    EXPECT_NEAR(times.lateMs[1], 0.0, 1e-9);
}

/** Counts every virtual call that reaches it. */
class CountingModel final : public NetworkModel
{
  public:
    mutable std::map<std::string, int> calls;

    void jobStarted(const JobSpec &, const Placement &, Seconds) override
    {
        ++calls["jobStarted"];
    }
    void jobFinished(JobId, Seconds) override { ++calls["jobFinished"]; }
    void updateInaRacks(JobId, const std::set<RackId> &) override
    {
        ++calls["updateInaRacks"];
    }
    Seconds advance(Seconds, Seconds until, std::vector<JobId> &) override
    {
        ++calls["advance"];
        return until;
    }
    std::size_t runningJobs() const override
    {
        ++calls["runningJobs"];
        return 3;
    }
    Gbps currentRate(JobId) const override
    {
        ++calls["currentRate"];
        return 4.0;
    }
    double progressFraction(JobId) const override
    {
        ++calls["progressFraction"];
        return 0.5;
    }
    bool snapshotSupported() const override
    {
        ++calls["snapshotSupported"];
        return true;
    }
    double remainingIterations(JobId) const override
    {
        ++calls["remainingIterations"];
        return 6.0;
    }
    void setRemainingIterations(JobId, double) override
    {
        ++calls["setRemainingIterations"];
    }
};

TEST(SimDecorators, ModelForwardsEveryVirtual)
{
    SimProbe probe;
    auto inner = std::make_unique<CountingModel>();
    CountingModel &counts = *inner;
    TimedModel model(std::move(inner), probe);
    std::vector<JobId> done;
    model.jobStarted(JobSpec{}, Placement{}, 0.0);
    model.jobFinished(JobId(1), 1.0);
    model.updateInaRacks(JobId(1), {});
    EXPECT_EQ(model.advance(0.0, 2.0, done), 2.0);
    EXPECT_EQ(model.runningJobs(), 3u);
    EXPECT_EQ(model.currentRate(JobId(1)), 4.0);
    EXPECT_EQ(model.progressFraction(JobId(1)), 0.5);
    EXPECT_TRUE(model.snapshotSupported());
    EXPECT_EQ(model.remainingIterations(JobId(1)), 6.0);
    model.setRemainingIterations(JobId(1), 2.0);
    EXPECT_EQ(counts.calls.size(), 10u);
    for (const auto &[name, n] : counts.calls)
        EXPECT_EQ(n, 1) << name;
}

TEST(SimDecorators, PlacerForwardsEveryVirtual)
{
    SimProbe probe;
    TimedPlacer placer(makePlacerByName("Random", 9), probe);
    const auto reference = makePlacerByName("Random", 9);
    EXPECT_EQ(placer.name(), reference->name());
    Rng::State state, refState;
    ASSERT_TRUE(placer.captureRngState(state));
    ASSERT_TRUE(reference->captureRngState(refState));
    placer.restoreRngState(state);
    EXPECT_EQ(placer.batchScores(), nullptr);

    TimedPlacer netpack(makePlacerByName("NetPack"), probe);
    ClusterConfig config;
    config.numRacks = 2;
    config.serversPerRack = 4;
    const ClusterTopology topo(config);
    GpuLedger gpus(topo);
    PlacementContext ctx(topo);
    JobSpec spec;
    spec.id = JobId(1);
    spec.modelName = ModelZoo::all().front().name;
    spec.gpuDemand = 6;
    const BatchResult result = netpack.placeBatch({spec}, topo, gpus, ctx);
    ASSERT_EQ(result.placed.size(), 1u);
    ASSERT_NE(netpack.batchScores(), nullptr);
    EXPECT_EQ(netpack.batchScores()->size(), 1u);
    EXPECT_EQ(probe.rounds, 1);
    EXPECT_EQ(probe.placedJobs, 1);
}

RunMetrics
simulateSmall(bool decorated)
{
    ClusterConfig config;
    config.numRacks = 4;
    config.serversPerRack = 8;
    const ClusterTopology topo(config);
    TraceGenConfig gen = fig9TraceConfig(11);
    gen.numJobs = 60;
    gen.meanInterarrival = 2.0;
    const JobTrace trace = generateTrace(gen);
    SimProbe probe;
    probe.spans.setEnabled(true);
    std::unique_ptr<NetworkModel> model =
        std::make_unique<FlowNetworkModel>(topo);
    std::unique_ptr<Placer> placer = makePlacerByName("NetPack");
    if (decorated) {
        model = std::make_unique<TimedModel>(std::move(model), probe);
        placer = std::make_unique<TimedPlacer>(std::move(placer), probe);
    }
    SimConfig sim;
    sim.placementPeriod = 10.0;
    ClusterSimulator simulator(topo, std::move(model), std::move(placer),
                               sim);
    RunMetrics metrics = simulator.run(trace);
    if (decorated) {
        EXPECT_GT(probe.spans.spans().size(), 0u);
    }
    return metrics;
}

TEST(SimDecorators, SimulationIsBitEqualWithAndWithoutThem)
{
    const RunMetrics plain = simulateSmall(false);
    const RunMetrics timed = simulateSmall(true);
    ASSERT_EQ(plain.records.size(), 60u);
    ASSERT_EQ(plain.records.size(), timed.records.size());
    EXPECT_EQ(plain.avgJct(), timed.avgJct());
    EXPECT_EQ(plain.avgDe(), timed.avgDe());
    for (std::size_t i = 0; i < plain.records.size(); ++i)
        EXPECT_EQ(plain.records[i].finishTime, timed.records[i].finishTime);
}

Span
span(const char *name, double start, double end)
{
    Span s;
    s.name = name;
    s.startUs = start;
    s.endUs = end;
    return s;
}

TEST(Attribution, SelfTimeIsTheSpanMinusItsChildren)
{
    // serve.request [0,100] > serve.place [10,90] > placement.batch
    // [20,80] > waterfill.estimate [30,40]; parents come from
    // containment, whatever the input order.
    std::vector<Span> spans = {
        span("waterfill.estimate", 30, 40), span("serve.request", 0, 100),
        span("placement.batch", 20, 80), span("serve.place", 10, 90)};
    const LayerTimes times = attribute(spans);
    EXPECT_NEAR(times.selfSeconds.at("serve.dispatch_self_s"), 20e-6, 1e-12);
    EXPECT_NEAR(times.selfSeconds.at("serve.place_self_s"), 20e-6, 1e-12);
    EXPECT_NEAR(times.selfSeconds.at("placement.batch_self_s"), 50e-6,
                1e-12);
    EXPECT_NEAR(times.selfSeconds.at("waterfill.cold_self_s"), 10e-6, 1e-12);
    EXPECT_NEAR(times.attributedSeconds, 100e-6, 1e-12);
    EXPECT_EQ(spans[0].name, "serve.request");
    EXPECT_EQ(spans[3].parent, 2);
}

TEST(Attribution, WaterFillingBelongsToItsNearestCaller)
{
    std::vector<Span> spans = {
        span("sim.step", 0, 100),
        span("sim.advance", 1, 20),
        span("waterfill.estimate", 2, 10),
        span("sim.place", 30, 90),
        span("waterfill.incremental_estimate", 31, 40),
        span("waterfill.estimate", 32, 39),
        span("placement.ina_ae_ranking", 50, 60),
        span("waterfill.estimate", 51, 55),
        span("unknown.span", 95, 99)};
    const LayerTimes times = attribute(spans);
    EXPECT_NEAR(times.selfSeconds.at("sim.refresh_self_s"), 8e-6, 1e-12);
    EXPECT_NEAR(times.selfSeconds.at("core.incremental_self_s"), 9e-6, 1e-12);
    EXPECT_NEAR(times.selfSeconds.at("waterfill.cold_self_s"), 4e-6, 1e-12);
    EXPECT_EQ(times.spans.at("waterfill.cold_self_s"), 1);
    // The unknown span's 4 µs stay unattributed.
    EXPECT_NEAR(times.attributedSeconds, 96e-6, 1e-12);
}

TEST(Attribution, RecorderNestsAndDisabledRecorderIsSilent)
{
    SpanRecorder off(false);
    {
        ScopedSpan a(off, "serve.request", 4);
    }
    EXPECT_TRUE(off.spans().empty());

    SpanRecorder on(true);
    {
        ScopedSpan a(on, "serve.request", 4);
        ScopedSpan b(on, "serve.parse", 4);
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_EQ(on.spans()[1].requestId, 4);
    EXPECT_LE(on.spans()[0].startUs, on.spans()[1].startUs);
    EXPECT_GE(on.spans()[0].endUs, on.spans()[1].endUs);
}

} // namespace
} // namespace perfbench
