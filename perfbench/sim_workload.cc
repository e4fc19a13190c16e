/**
 * @file
 * sim-fig9: the bench_fig09_scale 1,600-server point at --full job
 * density. NetPack on the flow model places ~100-job batches and the
 * flow model refreshes rates on every membership change — the layers
 * serve never runs. Each run simulates fresh traces (seeds derived from
 * the workload seed) on two threads until the window is spent; each
 * trace gets a fresh simulator on one thread.
 */

#include "sim_workload.h"

#include <cmath>
#include <exception>
#include <numeric>
#include <set>
#include <thread>

#include "common/check.h"
#include "exec/sweep.h"
#include "obs/metrics.h"
#include "placement/baselines.h"
#include "sim/cluster_sim.h"
#include "sim/flow_model.h"
#include "workloads.h"

namespace perfbench {

using namespace netpack;

BatchResult
TimedPlacer::placeBatch(const std::vector<JobSpec> &batch,
                        const ClusterTopology &topo, GpuLedger &gpus,
                        PlacementContext &ctx)
{
    BatchResult result;
    {
        ScopedSpan span(probe_.spans, "sim.place");
        result = inner_->placeBatch(batch, topo, gpus, ctx);
    }
    ++probe_.rounds;
    for (const PlacedJob &placed : result.placed) {
        ++probe_.placedJobs;
        probe_.singleServerJobs += placed.placement.singleServer() ? 1 : 0;
    }
    probe_.busyShareSum +=
        1.0 - static_cast<double>(gpus.totalFreeGpus()) /
                  static_cast<double>(topo.totalGpus());
    probe_.runningSum += static_cast<double>(ctx.jobCount());
    return result;
}

void
TimedModel::jobStarted(const JobSpec &spec, const Placement &placement,
                       Seconds now)
{
    ScopedSpan span(probe_.spans, "sim.model_events");
    inner_->jobStarted(spec, placement, now);
}

void
TimedModel::jobFinished(JobId id, Seconds now)
{
    ScopedSpan span(probe_.spans, "sim.model_events");
    inner_->jobFinished(id, now);
}

void
TimedModel::updateInaRacks(JobId id, const std::set<RackId> &racks)
{
    ScopedSpan span(probe_.spans, "sim.model_events");
    inner_->updateInaRacks(id, racks);
}

Seconds
TimedModel::advance(Seconds now, Seconds until, std::vector<JobId> &completed)
{
    ScopedSpan span(probe_.spans, "sim.advance");
    return inner_->advance(now, until, completed);
}

TraceGenConfig
fig9TraceConfig(std::uint64_t seed)
{
    TraceGenConfig gen;
    gen.numJobs = 640;
    gen.distribution = DemandDistribution::Poisson;
    gen.demandMean = 8.0;
    gen.demandStddev = 5.0;
    gen.maxGpuDemand = 64;
    gen.meanInterarrival = 0.5 * 1024.0 / 6400.0;
    gen.durationLogMu = 4.8;
    gen.durationLogSigma = 1.0;
    gen.seed = seed;
    return gen;
}

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 15;
/** Traces (with their simulators) built per set-up repetition. */
constexpr int kSetupTraces = 16;
/** Threads simulating traces side by side in the measured window. */
constexpr int kSimThreads = 2;
/** Traces re-simulated traced in a traced run. */
constexpr std::size_t kTracedTraces = 2;

ClusterConfig
fig9Cluster()
{
    ClusterConfig cluster;
    cluster.numRacks = 16;
    cluster.serversPerRack = 100;
    cluster.gpusPerServer = 4;
    return cluster;
}

JobTrace
fig9Trace(std::uint64_t workloadSeed, std::size_t index)
{
    return generateTrace(fig9TraceConfig(
        exec::streamSeed(workloadSeed, static_cast<std::uint64_t>(index))));
}

std::unique_ptr<ClusterSimulator>
makeSimulator(const ClusterTopology &topo, SimProbe &probe)
{
    SimConfig config;
    config.placementPeriod = 10.0;
    return std::make_unique<ClusterSimulator>(
        topo,
        std::make_unique<TimedModel>(std::make_unique<FlowNetworkModel>(topo),
                                     probe),
        std::make_unique<TimedPlacer>(makePlacerByName("NetPack"), probe),
        config);
}

/** Summary of one simulated trace. */
struct TraceRun
{
    std::size_t index = 0;
    double wallS = 0.0;
    std::size_t jobs = 0;
    double jctSum = 0.0;
    double deSum = 0.0;
    double avgJct = 0.0;
    double avgDe = 0.0;
};

/**
 * Simulate trace @p index on a fresh simulator and check that every
 * trace job completed exactly once with finite JCT and DE.
 */
TraceRun
simulate(const ClusterTopology &topo, std::uint64_t workloadSeed,
         std::size_t index, SimProbe &probe, Result &checks)
{
    const JobTrace trace = fig9Trace(workloadSeed, index);
    std::unique_ptr<ClusterSimulator> sim = makeSimulator(topo, probe);
    TraceRun run;
    run.index = index;
    const double t0 = nowSeconds();
    sim->begin(trace);
    while (sim->step()) {
    }
    const RunMetrics metrics = sim->finish();
    run.wallS = nowSeconds() - t0;

    std::multiset<int> done;
    for (const JobRecord &record : metrics.records) {
        done.insert(record.spec.id.value);
        run.jctSum += record.jct();
        run.deSum += record.distributionEfficiency();
    }
    for (const JobSpec &spec : trace.jobs())
        checks.attempt(done.count(spec.id.value) == 1);
    run.jobs = metrics.records.size();
    run.avgJct = metrics.avgJct();
    run.avgDe = metrics.avgDe();
    checks.attempt(run.jobs == trace.size() && std::isfinite(run.avgJct) &&
                   std::isfinite(run.avgDe));
    return run;
}

/** An untraced and a traced twin of one trace, stepped in lockstep. */
struct PairedTrace
{
    /** Wall time of each twin (begin, steps, finish). */
    double plainS = 0.0;
    double tracedS = 0.0;
    /** Both twins stepped alike and retired every job at the same time. */
    bool identical = false;
    double avgJct = 0.0;
    double avgDe = 0.0;
};

PairedTrace
simulatePaired(const ClusterTopology &topo, const JobTrace &trace,
               SimProbe &plainProbe, SimProbe &tracedProbe,
               ProgramTrace &programTrace)
{
    const std::unique_ptr<ClusterSimulator> plain =
        makeSimulator(topo, plainProbe);
    const std::unique_ptr<ClusterSimulator> traced =
        makeSimulator(topo, tracedProbe);
    PairedTrace pair;
    // Each call runs on both twins back to back, in alternating order,
    // so machine-speed drift and warm-cache order effects hit both
    // alike.
    bool plainFirst = true;
    const auto twin = [&](auto &&onPlain, auto &&onTraced) {
        const auto runPlain = [&] {
            const double t0 = nowSeconds();
            auto a = onPlain();
            pair.plainS += nowSeconds() - t0;
            return a;
        };
        const auto runTraced = [&] {
            programTrace.setActive(true);
            const double t0 = nowSeconds();
            auto b = onTraced();
            pair.tracedS += nowSeconds() - t0;
            programTrace.setActive(false);
            return b;
        };
        plainFirst = !plainFirst;
        if (!plainFirst) {
            auto a = runPlain();
            return std::make_pair(std::move(a), runTraced());
        }
        auto b = runTraced();
        return std::make_pair(runPlain(), std::move(b));
    };
    twin([&] { plain->begin(trace); return true; },
         [&] { traced->begin(trace); return true; });
    pair.identical = true;
    while (true) {
        const auto [a, b] = twin([&] { return plain->step(); },
                                 [&] {
                                     ScopedSpan span(tracedProbe.spans,
                                                     "sim.step");
                                     return traced->step();
                                 });
        if (a != b)
            pair.identical = false;
        if (!a || !b)
            break;
    }
    const auto [plainRun, tracedRun] = twin([&] { return plain->finish(); },
                                            [&] { return traced->finish(); });
    pair.identical = pair.identical &&
                     plainRun.records.size() == tracedRun.records.size();
    for (std::size_t j = 0; pair.identical && j < plainRun.records.size(); ++j)
        pair.identical = plainRun.records[j].finishTime ==
                         tracedRun.records[j].finishTime;
    pair.avgJct = plainRun.avgJct();
    pair.avgDe = plainRun.avgDe();
    return pair;
}

/** One simulation thread of the measured window. */
struct SimWorker
{
    SimProbe probe;
    Result checks;
    std::vector<TraceRun> runs;
    std::exception_ptr error;
};

} // namespace

Result
runSimFig9(const Options &options)
{
    Result result;
    const ClusterConfig cluster = fig9Cluster();

    // Set-up: topology, traces and simulators, several times over.
    std::vector<double> setups;
    std::unique_ptr<ClusterTopology> topo;
    SimProbe idle;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = nowSeconds();
        auto fresh = std::make_unique<ClusterTopology>(cluster);
        std::vector<JobTrace> traces;
        std::vector<std::unique_ptr<ClusterSimulator>> sims;
        for (int i = 0; i < kSetupTraces; ++i) {
            traces.push_back(
                fig9Trace(options.seed, static_cast<std::size_t>(i)));
            sims.push_back(makeSimulator(*fresh, idle));
        }
        setups.push_back(nowSeconds() - t0);
        sims.clear();
        topo = std::move(fresh);
    }

    // The measured window: thread t simulates traces t, t + T, t + 2T,
    // ... until the time is spent; a trace in flight runs to completion.
    // The fixed assignment keeps each thread's allocation history, and
    // so the peak RSS, independent of timing.
    std::vector<SimWorker> workers(kSimThreads);
    const double start = nowSeconds();
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < workers.size(); ++t) {
            threads.emplace_back([&, t]() noexcept {
                SimWorker &worker = workers[t];
                try {
                    for (std::size_t i = t;
                         nowSeconds() - start < options.seconds;
                         i += workers.size())
                        worker.runs.push_back(simulate(*topo, options.seed, i,
                                                       worker.probe,
                                                       worker.checks));
                } catch (...) {
                    worker.error = std::current_exception();
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    const double rssMb = peakRssMb();

    // Jobs per second of simulation wall time, summed over the threads;
    // the quality figures pool every job of every trace.
    double jobsPerS = 0.0, jctSum = 0.0, deSum = 0.0;
    std::size_t records = 0;
    std::vector<const TraceRun *> byIndex;
    SimProbe probe;
    for (SimWorker &worker : workers) {
        if (worker.error)
            std::rethrow_exception(worker.error);
        result.attempted += worker.checks.attempted;
        result.failed += worker.checks.failed;
        double wallS = 0.0;
        std::size_t jobs = 0;
        for (const TraceRun &run : worker.runs) {
            wallS += run.wallS;
            jobs += run.jobs;
            jctSum += run.jctSum;
            deSum += run.deSum;
            if (byIndex.size() <= run.index)
                byIndex.resize(run.index + 1, nullptr);
            byIndex[run.index] = &run;
        }
        if (wallS > 0.0)
            jobsPerS += static_cast<double>(jobs) / wallS;
        records += jobs;
        probe.rounds += worker.probe.rounds;
        probe.placedJobs += worker.probe.placedJobs;
        probe.singleServerJobs += worker.probe.singleServerJobs;
        probe.busyShareSum += worker.probe.busyShareSum;
        probe.runningSum += worker.probe.runningSum;
    }

    if (!options.trace) {
        MetricSheet sheet(endToEndMetrics());
        sheet.set("jobs_per_s", jobsPerS);
        sheet.set("setup_s", median(setups));
        sheet.set("peak_rss_mb", rssMb);
        sheet.appendTo(result);
        result.correct = result.failed == 0;
        return result;
    }

    // Traced run: re-simulate the first traces on an untraced and a
    // traced twin in lockstep; neither the decorators nor tracing may
    // change a JCT.
    SimProbe plainProbe, tracedProbe;
    tracedProbe.spans.setEnabled(true);
    ProgramTrace programTrace(options.workDir + "/trace.json");
    double tracedWallS = 0.0, plainWallS = 0.0;
    for (std::size_t i = 0; i < kTracedTraces && i < byIndex.size(); ++i) {
        NETPACK_CHECK(byIndex[i] != nullptr);
        const JobTrace trace = fig9Trace(options.seed, i);
        const PairedTrace pair = simulatePaired(*topo, trace, plainProbe,
                                                tracedProbe, programTrace);
        tracedWallS += pair.tracedS;
        plainWallS += pair.plainS;
        result.attempt(pair.identical &&
                       pair.avgJct == byIndex[i]->avgJct &&
                       pair.avgDe == byIndex[i]->avgDe);
    }
    const std::int64_t pruned =
        obs::snapshot().counters["placement.dp_states_pruned"];
    std::vector<Span> all = programTrace.read();
    all.insert(all.end(), tracedProbe.spans.spans().begin(),
               tracedProbe.spans.spans().end());
    const LayerTimes times = attribute(all);

    MetricSheet sheet(perLayerMetrics());
    setPlacementLayerCounts(sheet, all, times);
    sheet.set("placement.single_server_share",
              static_cast<double>(probe.singleServerJobs) /
                  static_cast<double>(probe.placedJobs));
    sheet.set("placement.dp_states_pruned", static_cast<double>(pruned));
    sheet.set("sim.steps",
              static_cast<double>(spanDurationsUs(all, "sim.step").size()));
    const std::vector<double> placeUs = spanDurationsUs(all, "sim.place");
    sheet.set("sim.rounds", static_cast<double>(placeUs.size()));
    sheet.set("sim.place_s",
              std::accumulate(placeUs.begin(), placeUs.end(), 0.0) * 1e-6);
    sheet.set("sim.avg_jct_s", jctSum / static_cast<double>(records));
    sheet.set("sim.avg_de", deSum / static_cast<double>(records));
    const auto rounds = static_cast<double>(probe.rounds);
    sheet.set("cluster.gpu_busy_share", probe.busyShareSum / rounds);
    sheet.set("cluster.running_jobs", probe.runningSum / rounds);
    sheet.set("trace.wall_s", tracedWallS);
    sheet.set("trace.unattributed_s", tracedWallS - times.attributedSeconds);
    sheet.set("trace.overhead_frac", tracedWallS / plainWallS - 1.0);
    sheet.appendTo(result);
    result.correct = result.failed == 0;
    return result;
}

} // namespace perfbench
