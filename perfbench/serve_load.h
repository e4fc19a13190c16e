/**
 * @file
 * Request streams of the serve workloads. Both are pure functions of
 * the seed and of the responses already received, so the daemon walks
 * the same state sequence on every run and a faster build simply
 * serves a longer prefix of the same stream.
 *
 *  - ManagerStream: one cluster manager, closed loop. While more than
 *    30 % of GPUs are free it places a new Philly-mix job, otherwise it
 *    departs a uniformly drawn running job. From an empty cluster its
 *    first requests are exactly the prefill that brings the cluster to
 *    70 % busy.
 *  - readerSchedule: the open-loop read traffic of serve-mixed, what-if
 *    queries and stats digests at fixed, evenly spaced send times.
 */

#ifndef PERFBENCH_SERVE_LOAD_H
#define PERFBENCH_SERVE_LOAD_H

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "serve/protocol.h"
#include "workload/job.h"

namespace perfbench {

/** Busy-GPU share the manager keeps the cluster at. */
inline constexpr double kTargetBusyShare = 0.7;

/**
 * Philly-mix GPU demands, stratified: every 100 consecutive draws hold
 * the exact proportions of the Philly mix in workload/trace_gen.cc
 * (47 % 1-GPU ... 1 % 64-GPU) in a seeded random order, so two seeds
 * differ in the order of jobs, not in their mix. That keeps set-up
 * (the prefill to 70 % busy) and throughput comparable across seeds.
 */
class PhillyDeck
{
  public:
    /** Next demand; reshuffles a fresh deck every 100 draws. */
    int draw(netpack::Rng &rng);

  private:
    std::vector<int> deck_;
};

/** Draw one Philly-mix job from @p deck, its model uniform over the
 * zoo. */
netpack::JobSpec drawPhillyJob(PhillyDeck &deck, netpack::Rng &rng, int id);

/** The closed-loop place/depart stream of one cluster manager. */
class ManagerStream
{
  public:
    ManagerStream(std::uint64_t seed, int totalGpus);

    /** Whether the next request places (true) or departs (false). */
    bool placesNext() const;

    /** The next request; call onResponse with its answer before the
     * following next(). */
    netpack::serve::Request next();

    /** Fold the answer to @p request into the manager's view. */
    void onResponse(const netpack::serve::Request &request,
                    const netpack::serve::Response &response);

    /** Busy GPUs as the manager's responses report them. */
    int busyGpus() const { return busyGpus_; }
    int totalGpus() const { return totalGpus_; }

    /** Jobs placed and not yet departed, in placement order. */
    const std::vector<netpack::JobId> &running() const { return running_; }

  private:
    netpack::Rng rng_;
    PhillyDeck deck_;
    int totalGpus_;
    int busyGpus_ = 0;
    int nextJob_ = 1;
    std::int64_t nextRequest_ = 1;
    std::vector<netpack::JobId> running_;
    std::map<int, int> gpusOf_;
};

/** One open-loop read and when it is due, relative to the window start. */
struct ScheduledRead
{
    double dueS = 0.0;
    netpack::serve::Request request;
};

/**
 * Reads due in [0, seconds): @p queriesPerS what-if queries (one
 * Philly-mix candidate each) and @p statsPerS stats requests, evenly
 * interleaved at a combined fixed rate. Candidate ids start at
 * kReadJobIdBase so they never collide with the manager's jobs.
 */
std::vector<ScheduledRead> readerSchedule(std::uint64_t seed, double seconds,
                                          double queriesPerS,
                                          double statsPerS);

/** First job id of what-if candidates. */
inline constexpr int kReadJobIdBase = 900000000;

/** Request ids of the reader start here (manager ids start at 1). */
inline constexpr std::int64_t kReadRequestIdBase = 1000000000;

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_H
