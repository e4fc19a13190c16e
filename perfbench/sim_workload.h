/**
 * @file
 * Decorators injected into ClusterSimulator for sim-fig9: they forward
 * every Placer / NetworkModel virtual to the wrapped object, so the
 * simulator runs exactly as without them, while the benchmark counts
 * each placement round and, when tracing, spans each round and each
 * network-model call.
 */

#ifndef PERFBENCH_SIM_WORKLOAD_H
#define PERFBENCH_SIM_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "attribution.h"
#include "placement/placer.h"
#include "sim/network_model.h"
#include "workload/trace_gen.h"

namespace perfbench {

/** What the decorators observed over one or more simulations. */
struct SimProbe
{
    /** Spans of placement rounds and model calls (when enabled). */
    SpanRecorder spans;
    /** Placement rounds seen. */
    std::int64_t rounds = 0;
    std::int64_t placedJobs = 0;
    std::int64_t singleServerJobs = 0;
    /** Busy-GPU share and running jobs after each round, summed. */
    double busyShareSum = 0.0;
    double runningSum = 0.0;
};

/** Placer decorator: a span around every placeBatch round, and the
 * round's placed jobs and cluster occupancy. */
class TimedPlacer final : public netpack::Placer
{
  public:
    TimedPlacer(std::unique_ptr<netpack::Placer> inner, SimProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    using netpack::Placer::placeBatch;

    std::string name() const override { return inner_->name(); }
    netpack::BatchResult placeBatch(const std::vector<netpack::JobSpec> &batch,
                                    const netpack::ClusterTopology &topo,
                                    netpack::GpuLedger &gpus,
                                    netpack::PlacementContext &ctx) override;
    const std::vector<double> *batchScores() const override
    {
        return inner_->batchScores();
    }
    bool captureRngState(netpack::Rng::State &out) const override
    {
        return inner_->captureRngState(out);
    }
    void restoreRngState(const netpack::Rng::State &state) override
    {
        inner_->restoreRngState(state);
    }

  private:
    std::unique_ptr<netpack::Placer> inner_;
    SimProbe &probe_;
};

/** NetworkModel decorator: spans around advance() and the job events. */
class TimedModel final : public netpack::NetworkModel
{
  public:
    TimedModel(std::unique_ptr<netpack::NetworkModel> inner, SimProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    void jobStarted(const netpack::JobSpec &spec,
                    const netpack::Placement &placement,
                    netpack::Seconds now) override;
    void jobFinished(netpack::JobId id, netpack::Seconds now) override;
    void updateInaRacks(netpack::JobId id,
                        const std::set<netpack::RackId> &racks) override;
    netpack::Seconds advance(netpack::Seconds now, netpack::Seconds until,
                             std::vector<netpack::JobId> &completed) override;
    std::size_t runningJobs() const override
    {
        return inner_->runningJobs();
    }
    netpack::Gbps currentRate(netpack::JobId id) const override
    {
        return inner_->currentRate(id);
    }
    double progressFraction(netpack::JobId id) const override
    {
        return inner_->progressFraction(id);
    }
    bool snapshotSupported() const override
    {
        return inner_->snapshotSupported();
    }
    double remainingIterations(netpack::JobId id) const override
    {
        return inner_->remainingIterations(id);
    }
    void setRemainingIterations(netpack::JobId id, double remaining) override
    {
        inner_->setRemainingIterations(id, remaining);
    }

  private:
    std::unique_ptr<netpack::NetworkModel> inner_;
    SimProbe &probe_;
};

/** Trace generator settings of one sim-fig9 trace. */
netpack::TraceGenConfig fig9TraceConfig(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_SIM_WORKLOAD_H
