/**
 * @file
 * The benchmark's workloads and the host-side probe the traced pass
 * attaches through ExperimentConfig::postBuild / harvestExtra.
 *
 * Each workload is one call of a public runner (core::runExperiment,
 * autoscale::runElastic or socialnet::runSocialnet) on a sweep of one
 * point with jobs = 1, so every simulation runs on one host thread.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/simulation.hh"
#include "spans.hh"

namespace perfbench
{

using microscale::Tick;

/** One runnable workload at one seed. */
struct Workload
{
    std::string name;
    /** Simulated seconds one call covers (warmup + measure). */
    double simSeconds = 0.0;
    /** Measurement window in simulated seconds. */
    double measureSeconds = 0.0;
    /** True when the runner calls postBuild and harvestExtra. */
    bool hooked = false;
    /** Canonical config text (without the seed); digested into the
     * run manifest. */
    std::string configText;
    microscale::core::ExperimentConfig config;
    std::function<microscale::core::RunResult(
        const microscale::core::ExperimentConfig &)>
        runner;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload at `seed`. `tiny` shrinks both windows to 0.5 ms
 * (1 ms simulated), which leaves world assembly and teardown: the
 * set-up calls. Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed, bool tiny,
                  Workload &out);

/** Outcome of one runner call. */
struct CallOutcome
{
    bool ok = false;
    std::string error;
    microscale::core::RunResult result;
    Clock::time_point start;
    Clock::time_point end;

    double wallSeconds() const { return secondsBetween(start, end); }
};

/** Run the workload once as a one-point sweep with jobs = 1. */
CallOutcome runOnce(const Workload &w);

/**
 * Host-time probe for the traced pass. Armed from postBuild, it
 * starts a background sim::PeriodicEvent that stamps host time every
 * `slicePeriod` of simulated time; harvestExtra stops it, reads the
 * engine and network counters, and subtracts the sampler's own
 * firings from RunResult::eventsProcessed so the result equals that
 * of a plain call.
 */
class Probe
{
  public:
    explicit Probe(Tick warmup,
                   Tick slicePeriod = 10 * microscale::kMillisecond)
        : warmup_(warmup), period_(slicePeriod)
    {
    }

    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

    /** Install the hooks into `config` (the probe must outlive it). */
    void attach(microscale::core::ExperimentConfig &config);

    /** True once harvestExtra ran. */
    bool harvested() const { return harvested_; }

    Clock::time_point postBuildAt() const { return post_build_; }
    Clock::time_point harvestAt() const { return harvest_; }

    /** One stamp per sampler firing: simulated tick and host time. */
    struct Stamp
    {
        Tick tick;
        Clock::time_point host;
    };
    const std::vector<Stamp> &stamps() const { return stamps_; }

    std::uint64_t samplerEvents() const { return stamps_.size(); }
    std::uint64_t slabSlots() const { return slab_slots_; }
    /** Network messages sent inside the measurement window. */
    std::uint64_t windowMessages() const
    {
        return messages_at_end_ - messages_at_warmup_;
    }

  private:
    void onSlice();

    Tick warmup_;
    Tick period_;
    microscale::sim::PeriodicEvent sampler_;
    const microscale::sim::Simulation *sim_ = nullptr;
    const microscale::net::Network *network_ = nullptr;
    std::vector<Stamp> stamps_;
    Clock::time_point post_build_;
    Clock::time_point harvest_;
    bool harvested_ = false;
    std::uint64_t slab_slots_ = 0;
    std::uint64_t messages_at_warmup_ = 0;
    std::uint64_t messages_at_end_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
