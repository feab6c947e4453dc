#include "autoscale/metrics.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "svc/service.hh"

namespace microscale::autoscale
{

MetricsBus::MetricsBus(teastore::App &app)
{
    services_ = {&app.webui(), &app.auth(), &app.persistence(),
                 &app.recommender(), &app.image()};
    state_.resize(services_.size());
    for (std::size_t i = 0; i < services_.size(); ++i) {
        state_[i].lastFailureCount = cumulativeFailures(*services_[i]);
        state_[i].lastBusyNs = services_[i]->aggregateCounters().busyNs;
        PerService *ps = &state_[i];
        services_[i]->addCompletionObserver(
            [ps](const std::string &, double serviceTimeNs,
                 svc::Status status) {
                ps->latenciesNs.push_back(serviceTimeNs);
                if (status != svc::Status::Ok)
                    ++ps->observedFailures;
            });
    }
}

std::uint64_t
MetricsBus::cumulativeFailures(const svc::Service &svc)
{
    std::uint64_t n = 0;
    for (const auto &[op, stats] : svc.opStats()) {
        for (unsigned s = 0; s < svc::kNumStatuses; ++s) {
            if (s != svc::statusIndex(svc::Status::Ok))
                n += stats.statusCounts[s];
        }
    }
    return n;
}

std::vector<ServiceSample>
MetricsBus::sample(Tick now)
{
    const Tick interval = now > last_sample_at_ ? now - last_sample_at_ : 0;
    const double interval_sec = ticksToSeconds(interval);
    last_sample_at_ = now;

    std::vector<ServiceSample> samples;
    samples.reserve(services_.size());
    for (std::size_t i = 0; i < services_.size(); ++i) {
        svc::Service &svc = *services_[i];
        PerService &ps = state_[i];

        ServiceSample s;
        s.service = svc.name();
        s.at = now;
        s.intervalSec = interval_sec;
        s.workersPerReplica = svc.params().workersPerReplica;
        for (unsigned r = 0; r < svc.replicaCount(); ++r) {
            switch (svc.replicaState(r)) {
            case svc::ReplicaState::Active:
                ++s.activeReplicas;
                break;
            case svc::ReplicaState::Warming:
                ++s.warmingReplicas;
                break;
            case svc::ReplicaState::Draining:
                ++s.drainingReplicas;
                break;
            case svc::ReplicaState::Retired:
                break;
            }
        }
        s.busyWorkers = svc.busyWorkers();
        // Busy time is banked when a worker's compute quantum ends, so
        // the last partial quantum of each busy worker lags the sample;
        // with control intervals far above a quantum the error is
        // negligible (and a control signal tolerates noise anyway).
        const double busy_ns = svc.aggregateCounters().busyNs;
        s.cpuBusySec =
            std::max(0.0, busy_ns - ps.lastBusyNs) / 1e9;
        ps.lastBusyNs = busy_ns;
        if (cpus_per_replica_ > 0.0 && s.activeReplicas > 0 &&
            interval_sec > 0.0) {
            s.utilization =
                s.cpuBusySec / (static_cast<double>(s.activeReplicas) *
                                cpus_per_replica_ * interval_sec);
        } else {
            const double capacity =
                static_cast<double>(s.activeReplicas) *
                static_cast<double>(s.workersPerReplica);
            s.utilization = capacity > 0.0
                                ? static_cast<double>(s.busyWorkers) /
                                      capacity
                                : 0.0;
        }
        s.queueDepth = svc.queuedRequests();

        // Failure rate from cumulative counters: it covers rejections
        // (shed, refused, deadline drops) that never reach a worker.
        // A stats reset mid-run (window boundary) makes the cumulative
        // count drop below the snapshot; resync by treating the new
        // count as this interval's delta.
        const std::uint64_t failures = cumulativeFailures(svc);
        const std::uint64_t failure_delta = failures >= ps.lastFailureCount
                                                ? failures -
                                                      ps.lastFailureCount
                                                : failures;
        ps.lastFailureCount = failures;

        const std::size_t n = ps.latenciesNs.size();
        if (interval_sec > 0.0) {
            s.completionsPerSec =
                static_cast<double>(n) / interval_sec;
            s.failuresPerSec =
                static_cast<double>(failure_delta) / interval_sec;
        }
        if (n > 0) {
            double sum = 0.0;
            for (double v : ps.latenciesNs)
                sum += v;
            std::sort(ps.latenciesNs.begin(), ps.latenciesNs.end());
            const std::size_t idx = static_cast<std::size_t>(
                std::ceil(0.99 * static_cast<double>(n)));
            const double kMs = static_cast<double>(kMillisecond);
            s.meanServiceMs = sum / static_cast<double>(n) / kMs;
            s.p99ServiceMs =
                ps.latenciesNs[std::min(n - 1, idx > 0 ? idx - 1 : 0)] /
                kMs;
        }
        ps.latenciesNs.clear();
        ps.observedFailures = 0;
        samples.push_back(std::move(s));
    }
    return samples;
}

} // namespace microscale::autoscale
