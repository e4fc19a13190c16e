#include "serve_load.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "workload/models.h"

namespace perfbench {

using namespace netpack;

int
PhillyDeck::draw(Rng &rng)
{
    if (deck_.empty()) {
        // The Philly buckets of workload/trace_gen.cc, per 100 jobs.
        constexpr std::pair<int, int> kMix[] = {{1, 47}, {2, 15}, {4, 15},
                                                {8, 13}, {16, 6}, {32, 3},
                                                {64, 1}};
        for (const auto &[gpus, count] : kMix)
            deck_.insert(deck_.end(), static_cast<std::size_t>(count), gpus);
        for (std::size_t i = deck_.size() - 1; i > 0; --i)
            std::swap(deck_[i],
                      deck_[static_cast<std::size_t>(rng.uniformInt(
                          0, static_cast<std::int64_t>(i)))]);
    }
    const int gpus = deck_.back();
    deck_.pop_back();
    return gpus;
}

JobSpec
drawPhillyJob(PhillyDeck &deck, Rng &rng, int id)
{
    JobSpec spec;
    spec.id = JobId(id);
    spec.gpuDemand = deck.draw(rng);
    const auto &models = ModelZoo::all();
    spec.modelName =
        models[static_cast<std::size_t>(rng.uniformInt(
                   0, static_cast<std::int64_t>(models.size()) - 1))]
            .name;
    spec.iterations = 1000;
    return spec;
}

ManagerStream::ManagerStream(std::uint64_t seed, int totalGpus)
    : rng_(seed), totalGpus_(totalGpus)
{
}

bool
ManagerStream::placesNext() const
{
    const int freeGpus = totalGpus_ - busyGpus_;
    return running_.empty() ||
           static_cast<double>(freeGpus) >
               (1.0 - kTargetBusyShare) * static_cast<double>(totalGpus_);
}

serve::Request
ManagerStream::next()
{
    serve::Request request;
    request.id = nextRequest_++;
    if (placesNext()) {
        request.op = serve::Op::Place;
        request.jobs.push_back(drawPhillyJob(deck_, rng_, nextJob_++));
    } else {
        request.op = serve::Op::Depart;
        const auto pick = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(running_.size()) - 1));
        request.departs.push_back(running_[pick]);
    }
    return request;
}

void
ManagerStream::onResponse(const serve::Request &request,
                          const serve::Response &response)
{
    if (!response.ok)
        return;
    if (request.op == serve::Op::Place) {
        for (const PlacedJob &placed : response.placed) {
            const int gpus = placed.placement.totalWorkers();
            gpusOf_[placed.id.value] = gpus;
            busyGpus_ += gpus;
            running_.push_back(placed.id);
        }
    } else if (request.op == serve::Op::Depart) {
        for (JobId id : request.departs) {
            const auto it = gpusOf_.find(id.value);
            NETPACK_CHECK(it != gpusOf_.end());
            busyGpus_ -= it->second;
            gpusOf_.erase(it);
            for (std::size_t i = 0; i < running_.size(); ++i) {
                if (running_[i] == id) {
                    // Swap-remove: the order stays a function of the
                    // stream alone.
                    running_[i] = running_.back();
                    running_.pop_back();
                    break;
                }
            }
        }
    }
}

std::vector<ScheduledRead>
readerSchedule(std::uint64_t seed, double seconds, double queriesPerS,
               double statsPerS)
{
    std::vector<ScheduledRead> reads;
    const double rate = queriesPerS + statsPerS;
    if (rate <= 0.0)
        return reads;
    Rng rng(seed ^ 0x7ead5u);
    PhillyDeck deck;
    const double statsShare = statsPerS / rate;
    const auto count = static_cast<std::int64_t>(std::floor(seconds * rate));
    for (std::int64_t i = 0; i < count; ++i) {
        ScheduledRead read;
        // Half a period in, so the first read does not race the
        // manager's first request.
        read.dueS = (static_cast<double>(i) + 0.5) / rate;
        read.request.id = kReadRequestIdBase + i;
        // Bresenham interleave: stats land evenly among the queries.
        const bool stats =
            std::floor(static_cast<double>(i + 1) * statsShare) >
            std::floor(static_cast<double>(i) * statsShare);
        if (stats) {
            read.request.op = serve::Op::Stats;
        } else {
            read.request.op = serve::Op::Query;
            read.request.jobs.push_back(
                drawPhillyJob(deck, rng, kReadJobIdBase + static_cast<int>(i)));
        }
        reads.push_back(std::move(read));
    }
    return reads;
}

} // namespace perfbench
