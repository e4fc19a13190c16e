/**
 * @file
 * serve-place and serve-mixed: the netpack::serve daemon over loopback
 * at realistic occupancy. Set-up recovers the daemon from a WAL holding
 * a prefill to 70 % busy GPUs; the measured window then runs one
 * closed-loop manager connection (place/depart) and, for serve-mixed,
 * one open-loop reader connection (what-if queries and stats digests).
 *
 * The traced run replays the same request stream in-process through
 * the public calls the service thread makes, in its order (parse,
 * validate, WAL append, apply/whatIf/stateDigest, encode), each wrapped
 * in a benchmark span tagged with the request id.
 */

#include <algorithm>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common/check.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/placement_server.h"
#include "serve/protocol.h"
#include "serve/wal.h"
#include "serve_load.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace netpack;
namespace fs = std::filesystem;

/** Daemon start-ups timed per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** serve-mixed read rates (sized in perfbench/NOTES.md). */
constexpr double kQueriesPerS = 20.0;
constexpr double kStatsPerS = 10.0;
/** Placed jobs per throughput sample. */
constexpr std::size_t kRateChunk = 100;

serve::EngineConfig
engineConfig()
{
    serve::EngineConfig config;
    config.cluster.numRacks = 64;
    config.cluster.serversPerRack = 16;
    config.cluster.gpusPerServer = 4;
    config.placer = "NetPack";
    return config;
}

/** One manager request of the live window. */
struct ManagerEntry
{
    serve::Request request;
    double sentS = 0.0;
    double doneS = 0.0;
    /** serializeResponse of the answer (replay comparison). */
    std::string response;
};

/** One reader request of the live window. */
struct ReaderEntry
{
    serve::Request request;
    OpenLoopSample times;
    serve::Response response;
};

/** What a manager's responses say the cluster looked like after a
 * mutation: checked against the reader's stats answers. */
struct ClusterView
{
    std::int64_t running = 0;
    std::int64_t freeGpus = 0;
};

bool
placeAnswerValid(const serve::Request &request,
                 const serve::Response &response)
{
    if (!response.ok || response.placed.size() + response.deferred.size() !=
                            request.jobs.size())
        return false;
    for (const PlacedJob &placed : response.placed) {
        const auto it = std::find_if(
            request.jobs.begin(), request.jobs.end(),
            [&](const JobSpec &spec) { return spec.id == placed.id; });
        if (it == request.jobs.end() ||
            placed.placement.totalWorkers() != it->gpuDemand)
            return false;
    }
    return true;
}

bool
queryAnswerValid(const serve::Request &request,
                 const serve::Response &response)
{
    if (!response.ok ||
        response.queryResults.size() != request.jobs.size())
        return false;
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
        const serve::QueryResult &result = response.queryResults[i];
        if (result.job != request.jobs[i].id)
            return false;
        if (result.placeable &&
            result.placement.totalWorkers() != request.jobs[i].gpuDemand)
            return false;
    }
    return true;
}

/**
 * Send @p reads on @p conn at their due times (relative to
 * @p windowStart), one at a time: a read answered late delays the next
 * send, which its latency from the due time then includes.
 */
std::vector<ReaderEntry>
readAsScheduled(serve::ServeClient &conn,
                const std::vector<ScheduledRead> &reads, double windowStart)
{
    std::vector<ReaderEntry> log;
    log.reserve(reads.size());
    for (const ScheduledRead &read : reads) {
        std::this_thread::sleep_until(atSeconds(windowStart + read.dueS));
        ReaderEntry entry;
        entry.request = read.request;
        entry.times.dueS = windowStart + read.dueS;
        entry.times.sentS = nowSeconds();
        entry.response = conn.call(read.request);
        entry.times.doneS = nowSeconds();
        log.push_back(std::move(entry));
    }
    return log;
}

/**
 * The service thread's request path, driven in-process: the same
 * public calls PlacementServer::dispatch makes, in the same order, on
 * an engine recovered from the prefill WAL and appending to a copy of
 * it. Benchmark spans wrap each call when @p spans is enabled.
 */
class ServiceReplay
{
  public:
    ServiceReplay(const std::string &prefillWal, const std::string &walCopy,
                  SpanRecorder &spans)
        : spans_(spans)
    {
        fs::copy_file(prefillWal, walCopy,
                      fs::copy_options::overwrite_existing);
        engine_ = serve::recoverEngine(serve::loadWal(walCopy), seq_);
        wal_ = std::make_unique<serve::WalWriter>(walCopy, /*append=*/true);
    }

    /** Serve one request line; returns the encoded response line. */
    std::string serve(std::string_view line, std::int64_t requestId)
    {
        ScopedSpan root(spans_, "serve.request", requestId);
        serve::Request request;
        serve::Response response;
        response.id = requestId;
        try {
            {
                ScopedSpan span(spans_, "serve.parse", requestId);
                request = serve::parseRequest(line);
            }
            dispatch(request, response);
        } catch (const ConfigError &err) {
            response.ok = false;
            response.error = err.what();
        }
        ScopedSpan span(spans_, "serve.encode", requestId);
        return serve::serializeResponse(response);
    }

    serve::PlacementEngine &engine() { return *engine_; }
    std::uint64_t seq() const { return seq_; }

  private:
    void dispatch(const serve::Request &request, serve::Response &response)
    {
        const std::int64_t id = request.id;
        switch (request.op) {
          case serve::Op::Place: {
            {
                ScopedSpan span(spans_, "serve.validate", id);
                engine_->validatePlace(request.jobs);
            }
            {
                ScopedSpan span(spans_, "serve.wal_append", id);
                wal_->appendPlace(seq_ + 1, request.jobs);
            }
            BatchResult result;
            {
                ScopedSpan span(spans_, "serve.place", id);
                result = engine_->applyPlace(request.jobs);
            }
            ++seq_;
            response.ok = true;
            response.placed = std::move(result.placed);
            response.deferred = std::move(result.deferred);
            break;
          }
          case serve::Op::Depart: {
            {
                ScopedSpan span(spans_, "serve.validate", id);
                engine_->validateDepart(request.departs);
            }
            {
                ScopedSpan span(spans_, "serve.wal_append", id);
                wal_->appendDepart(seq_ + 1, request.departs);
            }
            {
                ScopedSpan span(spans_, "serve.depart", id);
                engine_->applyDepart(request.departs);
            }
            ++seq_;
            response.ok = true;
            break;
          }
          case serve::Op::Query: {
            ScopedSpan span(spans_, "serve.query", id);
            response.queryResults = engine_->whatIf(request.jobs, nullptr);
            response.ok = true;
            break;
          }
          case serve::Op::Stats: {
            ScopedSpan span(spans_, "serve.stats", id);
            serve::StatsBody &stats = response.stats;
            stats.seq = seq_;
            stats.runningJobs = engine_->runningJobs();
            stats.freeGpus = engine_->freeGpus();
            stats.placedJobs = engine_->placedJobs();
            stats.departedJobs = engine_->departedJobs();
            stats.deferredJobs = engine_->deferredJobs();
            stats.digest = engine_->stateDigest(seq_);
            response.hasStats = true;
            response.ok = true;
            break;
          }
          default:
            throw ConfigError(std::string("replay cannot serve op ") +
                              serve::opName(request.op));
        }
    }

    SpanRecorder &spans_;
    std::unique_ptr<serve::PlacementEngine> engine_;
    std::unique_ptr<serve::WalWriter> wal_;
    std::uint64_t seq_ = 0;
};

/** One request of the replay, in the order the daemon served it. */
struct ReplayItem
{
    std::string line;
    std::int64_t id = 0;
    /** Index into the manager log, or -1 for a reader request. */
    int manager = -1;
};

/**
 * Merge the two connections' requests into service order. The manager
 * has one request in flight, so a read sent before manager request k
 * was sent reached the service thread before it; reads sent while k was
 * in flight are served after k (approximation for reads that raced k).
 */
std::vector<ReplayItem>
serviceOrder(const std::vector<ManagerEntry> &manager,
             const std::vector<ReaderEntry> &reader)
{
    std::vector<ReplayItem> order;
    std::size_t r = 0;
    for (std::size_t k = 0; k < manager.size(); ++k) {
        while (r < reader.size() &&
               reader[r].times.sentS < manager[k].sentS) {
            order.push_back({serve::serializeRequest(reader[r].request),
                             reader[r].request.id, -1});
            ++r;
        }
        order.push_back({serve::serializeRequest(manager[k].request),
                         manager[k].request.id, static_cast<int>(k)});
    }
    for (; r < reader.size(); ++r)
        order.push_back({serve::serializeRequest(reader[r].request),
                         reader[r].request.id, -1});
    return order;
}

/** Outcome of the paired replay. */
struct ReplayPass
{
    /** Summed per-request service time of each twin. */
    double plainS = 0.0;
    double tracedS = 0.0;
    /** Untraced in-process service time per manager entry (µs). */
    std::vector<double> managerServiceUs;
    /** Place answers compared with the live run's, and mismatches
     * (either twin). */
    std::int64_t compared = 0;
    std::int64_t mismatches = 0;
    /** Whether both twins end in the live daemon's final state. */
    bool digestsMatch = false;
};

/**
 * Serve every request on both twins back to back — the traced one with
 * program tracing on — in alternating order, so machine-speed drift and
 * warm-cache order effects hit both alike.
 */
ReplayPass
replayPaired(const std::vector<ReplayItem> &order,
             const std::vector<ManagerEntry> &manager, ServiceReplay &plain,
             ServiceReplay &traced, ProgramTrace &programTrace,
             const std::string &liveDigest)
{
    ReplayPass pass;
    pass.managerServiceUs.assign(manager.size(), 0.0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const ReplayItem &item = order[i];
        double plainS = 0.0;
        std::string plainAnswer, tracedAnswer;
        const auto runPlain = [&] {
            const double t0 = nowSeconds();
            plainAnswer = plain.serve(item.line, item.id);
            plainS = nowSeconds() - t0;
        };
        const auto runTraced = [&] {
            programTrace.setActive(true);
            const double t0 = nowSeconds();
            tracedAnswer = traced.serve(item.line, item.id);
            pass.tracedS += nowSeconds() - t0;
            programTrace.setActive(false);
        };
        if (i % 2 == 0) {
            runPlain();
            runTraced();
        } else {
            runTraced();
            runPlain();
        }
        pass.plainS += plainS;
        if (item.manager < 0)
            continue;
        const auto k = static_cast<std::size_t>(item.manager);
        pass.managerServiceUs[k] = plainS * 1e6;
        if (manager[k].request.op == serve::Op::Place) {
            ++pass.compared;
            if (plainAnswer != manager[k].response ||
                tracedAnswer != manager[k].response)
                ++pass.mismatches;
        }
    }
    pass.digestsMatch =
        plain.engine().stateDigest(plain.seq()) == liveDigest &&
        traced.engine().stateDigest(traced.seq()) == liveDigest;
    return pass;
}

/**
 * Journal the manager stream's first requests — from an empty cluster
 * up to 70 % busy GPUs — as the daemon's WAL would; returns the last
 * sequence number.
 */
std::uint64_t
writePrefill(ManagerStream &stream, const serve::EngineConfig &engine,
             const std::string &path)
{
    serve::PlacementEngine prefill(engine);
    serve::WalHeader header;
    header.cluster = engine.cluster;
    header.placer = engine.placer;
    header.seed = engine.seed;
    serve::WalWriter wal(path, header);
    std::uint64_t seq = 0;
    while (stream.placesNext()) {
        const serve::Request request = stream.next();
        prefill.validatePlace(request.jobs);
        wal.appendPlace(++seq, request.jobs);
        BatchResult placed = prefill.applyPlace(request.jobs);
        serve::Response response;
        response.ok = true;
        response.placed = std::move(placed.placed);
        response.deferred = std::move(placed.deferred);
        stream.onResponse(request, response);
    }
    return seq;
}

/** What the measured window produced. */
struct LiveRun
{
    std::vector<ManagerEntry> manager;
    std::vector<ReaderEntry> reader;
    double windowStart = 0.0;
    /** From the window start to the last manager answer. */
    double windowS = 0.0;
    /** WAL sequence after the last manager mutation. */
    std::uint64_t seq = 0;
    std::int64_t placedJobs = 0;
    std::int64_t singleServerJobs = 0;
    /** Busy-GPU share and running jobs after each manager answer. */
    double busyShareSum = 0.0;
    double runningSum = 0.0;
};

/**
 * Drive the daemon for @p options.seconds: the manager stream on one
 * connection and, when @p reads is non-empty, the open-loop reader on
 * a second. Every answer is checked into @p result.
 */
LiveRun
runWindow(serve::PlacementServer &server, ManagerStream &stream,
          std::uint64_t prefillSeq, const std::vector<ScheduledRead> &reads,
          const Options &options, Result &result)
{
    LiveRun live;
    live.seq = prefillSeq;
    const int totalGpus = stream.totalGpus();
    std::map<std::uint64_t, ClusterView> views;
    views[prefillSeq] = {static_cast<std::int64_t>(stream.running().size()),
                         totalGpus - stream.busyGpus()};
    serve::ServeClient managerConn(server.port());
    std::unique_ptr<serve::ServeClient> readerConn =
        reads.empty() ? nullptr
                      : std::make_unique<serve::ServeClient>(server.port());

    live.windowStart = nowSeconds() + 0.01;
    std::thread readerThread;
    std::exception_ptr readerError;
    if (readerConn) {
        readerThread = std::thread([&]() noexcept {
            try {
                live.reader =
                    readAsScheduled(*readerConn, reads, live.windowStart);
            } catch (...) {
                readerError = std::current_exception();
            }
        });
    }
    std::this_thread::sleep_until(atSeconds(live.windowStart));
    while (nowSeconds() - live.windowStart < options.seconds) {
        ManagerEntry entry;
        entry.request = stream.next();
        entry.sentS = nowSeconds();
        const serve::Response response = managerConn.call(entry.request);
        entry.doneS = nowSeconds();
        bool ok = response.ok;
        if (entry.request.op == serve::Op::Place) {
            ok = placeAnswerValid(entry.request, response);
            entry.response = serve::serializeResponse(response);
            for (const PlacedJob &placed : response.placed) {
                ++live.placedJobs;
                live.singleServerJobs += placed.placement.singleServer();
            }
        }
        stream.onResponse(entry.request, response);
        if (response.ok)
            views[++live.seq] = {
                static_cast<std::int64_t>(stream.running().size()),
                totalGpus - stream.busyGpus()};
        live.busyShareSum +=
            static_cast<double>(stream.busyGpus()) / totalGpus;
        live.runningSum += static_cast<double>(stream.running().size());
        result.attempt(ok);
        live.manager.push_back(std::move(entry));
    }
    if (readerThread.joinable())
        readerThread.join();
    if (readerError)
        std::rethrow_exception(readerError);
    NETPACK_REQUIRE(!live.manager.empty(), "no manager request completed");
    live.windowS = live.manager.back().doneS - live.windowStart;

    // Reader answers: what-ifs must be well-formed, stats must match
    // the manager's view of the cluster at the sequence they report.
    for (const ReaderEntry &entry : live.reader) {
        bool ok = false;
        if (entry.request.op == serve::Op::Query) {
            ok = queryAnswerValid(entry.request, entry.response);
        } else if (entry.response.ok && entry.response.hasStats) {
            const auto it = views.find(entry.response.stats.seq);
            ok = it != views.end() &&
                 it->second.running == entry.response.stats.runningJobs &&
                 it->second.freeGpus == entry.response.stats.freeGpus;
        }
        result.attempt(ok);
    }
    return live;
}

/**
 * Replay @p live in-process on untraced and traced twins and fill the
 * per-layer sheet.
 */
void
tracedMetrics(const LiveRun &live, const std::string &prefillWal,
              const std::string &liveDigest, const Options &options,
              Result &result)
{
    const std::vector<ReplayItem> order =
        serviceOrder(live.manager, live.reader);
    SpanRecorder off(false), spans(true);
    ServiceReplay plainService(prefillWal, options.workDir + "/plain.wal",
                               off);
    ServiceReplay tracedService(prefillWal, options.workDir + "/traced.wal",
                                spans);
    ProgramTrace programTrace(options.workDir + "/trace.json");
    const ReplayPass pass =
        replayPaired(order, live.manager, plainService, tracedService,
                     programTrace, liveDigest);
    const std::int64_t pruned =
        obs::snapshot().counters["placement.dp_states_pruned"];
    std::vector<Span> all = programTrace.read();
    all.insert(all.end(), spans.spans().begin(), spans.spans().end());
    const LayerTimes times = attribute(all);
    result.attempted += pass.compared;
    result.failed += pass.mismatches;
    result.attempt(pass.digestsMatch);

    MetricSheet sheet(perLayerMetrics());
    std::vector<double> waitUs, placeMs;
    for (std::size_t k = 0; k < live.manager.size(); ++k) {
        const ManagerEntry &entry = live.manager[k];
        waitUs.push_back((entry.doneS - entry.sentS) * 1e6 -
                         pass.managerServiceUs[k]);
        if (entry.request.op == serve::Op::Place)
            placeMs.push_back((entry.doneS - entry.sentS) * 1e3);
    }
    sheet.set("serve.wait_p50_us", median(waitUs));
    sheet.set("serve.place_p50_us",
              median(spanDurationsUs(all, "serve.place")));
    sheet.set("serve.query_p50_us",
              median(spanDurationsUs(all, "serve.query")));
    sheet.set("serve.stats_p50_us",
              median(spanDurationsUs(all, "serve.stats")));
    setPlacementLayerCounts(sheet, all, times);
    sheet.set("placement.single_server_share",
              static_cast<double>(live.singleServerJobs) /
                  static_cast<double>(live.placedJobs));
    sheet.set("placement.dp_states_pruned", static_cast<double>(pruned));
    const auto requests = static_cast<double>(live.manager.size());
    sheet.set("cluster.gpu_busy_share", live.busyShareSum / requests);
    sheet.set("cluster.running_jobs", live.runningSum / requests);
    sheet.set("loadgen.req_per_s", requests / live.windowS);
    sheet.set("loadgen.place_p50_ms",
              requirePercentile(placeMs, 50.0, "place latency"));
    sheet.set("loadgen.place_p99_ms",
              requirePercentile(placeMs, 99.0, "place latency"));
    if (!live.reader.empty()) {
        std::vector<OpenLoopSample> queries, allReads;
        for (const ReaderEntry &entry : live.reader) {
            allReads.push_back(entry.times);
            if (entry.request.op == serve::Op::Query)
                queries.push_back(entry.times);
        }
        const OpenLoopTimes queryTimes = openLoopTimes(queries);
        sheet.set("loadgen.query_p50_ms",
                  requirePercentile(queryTimes.latencyMs, 50.0, "query"));
        sheet.set("loadgen.query_p95_ms",
                  requirePercentile(queryTimes.latencyMs, 95.0, "query"));
        sheet.set("loadgen.late_p95_ms",
                  requirePercentile(openLoopTimes(allReads).lateMs, 95.0,
                                    "reader lateness"));
    }
    sheet.set("trace.wall_s", pass.tracedS);
    sheet.set("trace.unattributed_s", pass.tracedS - times.attributedSeconds);
    sheet.set("trace.overhead_frac", pass.tracedS / pass.plainS - 1.0);
    sheet.appendTo(result);
}

} // namespace

Result
runServe(const Options &options, bool mixed)
{
    Result result;
    const serve::EngineConfig engine = engineConfig();
    const std::string prefillWal = options.workDir + "/prefill.wal";
    const std::string runWal = options.workDir + "/run.wal";
    ManagerStream stream(options.seed, engine.cluster.numRacks *
                                           engine.cluster.serversPerRack *
                                           engine.cluster.gpusPerServer);
    const std::uint64_t prefillSeq = writePrefill(stream, engine, prefillWal);

    // Set-up: daemon start including WAL recovery of the prefill.
    serve::ServerConfig config;
    config.engine = engine;
    config.walPath = runWal;
    config.recover = true;
    config.queryThreads = 0; // what-ifs on the service thread, no pool
    std::vector<double> setups;
    std::unique_ptr<serve::PlacementServer> server;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        server.reset();
        fs::copy_file(prefillWal, runWal,
                      fs::copy_options::overwrite_existing);
        const double t0 = nowSeconds();
        server = std::make_unique<serve::PlacementServer>(config);
        setups.push_back(nowSeconds() - t0);
    }

    const LiveRun live = runWindow(
        *server, stream, prefillSeq,
        mixed ? readerSchedule(options.seed, options.seconds, kQueriesPerS,
                               kStatsPerS)
              : std::vector<ScheduledRead>{},
        options, result);
    serve::Request finalStats;
    finalStats.op = serve::Op::Stats;
    const serve::Response final =
        serve::ServeClient(server->port()).call(finalStats);
    const double rssMb = peakRssMb();
    server.reset();

    // Crash-recovery identity: the daemon's final digest equals a
    // recovery from the WAL it wrote.
    std::uint64_t recoveredSeq = 0;
    const std::unique_ptr<serve::PlacementEngine> recovered =
        serve::recoverEngine(serve::loadWal(runWal), recoveredSeq);
    result.attempt(final.ok && final.stats.seq == live.seq &&
                   recoveredSeq == live.seq &&
                   recovered->stateDigest(recoveredSeq) ==
                       final.stats.digest);

    if (options.trace) {
        tracedMetrics(live, prefillWal, final.stats.digest, options, result);
    } else {
        // Placement rate over each run of kRateChunk consecutive placed
        // jobs; the median chunk shrugs off a burst of machine noise
        // that a window mean would absorb.
        std::vector<double> chunkRates;
        double chunkStart = live.windowStart;
        std::size_t placed = 0;
        for (const ManagerEntry &entry : live.manager) {
            if (entry.request.op != serve::Op::Place ||
                ++placed % kRateChunk != 0)
                continue;
            chunkRates.push_back(static_cast<double>(kRateChunk) /
                                 (entry.doneS - chunkStart));
            chunkStart = entry.doneS;
        }
        NETPACK_REQUIRE(!chunkRates.empty(), "too few jobs placed");
        MetricSheet sheet(endToEndMetrics());
        sheet.set("jobs_per_s", median(chunkRates));
        sheet.set("setup_s", median(setups));
        sheet.set("peak_rss_mb", rssMb);
        sheet.appendTo(result);
    }
    result.correct = result.failed == 0;
    return result;
}

} // namespace perfbench
