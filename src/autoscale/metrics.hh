/**
 * @file
 * MetricsBus: the autoscaler's view of the running application.
 *
 * Each control period the bus turns raw service state into one
 * ServiceSample per scaled service: instantaneous utilization and
 * queue depth, plus per-interval completion/failure rates and service
 * latency quantiles. Interval latencies come from a completion
 * observer installed on every scaled service (the cumulative
 * QuantileHistogram cannot yield per-interval quantiles); rejection
 * counts come from deltas of the cumulative per-op status counters,
 * since shed/refused requests never reach a worker or the observer.
 */

#ifndef MICROSCALE_AUTOSCALE_METRICS_HH
#define MICROSCALE_AUTOSCALE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "teastore/app.hh"

namespace microscale::autoscale
{

/** One control-interval observation of one service. */
struct ServiceSample
{
    std::string service;
    Tick at = 0;
    /** Length of the interval this sample summarizes, in seconds. */
    double intervalSec = 0.0;

    unsigned activeReplicas = 0;
    unsigned warmingReplicas = 0;
    unsigned drainingReplicas = 0;
    unsigned workersPerReplica = 0;
    unsigned busyWorkers = 0;
    /** CPU-seconds the service's workers consumed this interval. */
    double cpuBusySec = 0.0;
    /**
     * CPU busy share of the granted capacity when a CPU basis is set
     * (setCpusPerReplica), else the busy-worker fraction. The CPU form
     * is the useful scaling signal: worker pools are sized far above
     * the CPUs backing a replica, so the busy-worker fraction stays
     * near zero until the queue is already deep.
     */
    double utilization = 0.0;
    /** Requests queued across replicas right now. */
    std::uint64_t queueDepth = 0;

    /** Worker-served completions per second of interval. */
    double completionsPerSec = 0.0;
    /** Non-OK outcomes per second (handler failures + rejections). */
    double failuresPerSec = 0.0;
    /** Mean replica service time over the interval, ms. */
    double meanServiceMs = 0.0;
    /** p99 replica service time over the interval, ms. */
    double p99ServiceMs = 0.0;
};

/**
 * Samples the five worker services of a TeaStore app. Adds a
 * completion observer to each scaled service (observers stack, so
 * other listeners such as the brownout controller can coexist).
 */
class MetricsBus
{
  public:
    explicit MetricsBus(teastore::App &app);

    /**
     * Set the CPU capacity one replica is considered to own (the
     * placer's grant quantum). Switches `utilization` from the
     * busy-worker fraction to cpuBusySec / (active x cpus x interval).
     */
    void setCpusPerReplica(double cpus) { cpus_per_replica_ = cpus; }

    /**
     * Produce one sample per scaled service covering the interval
     * since the previous call (or since construction) and reset the
     * interval accumulators. Samples are in canonical service order.
     */
    std::vector<ServiceSample> sample(Tick now);

    /** The services being observed, in canonical order. */
    const std::vector<svc::Service *> &services() const
    {
        return services_;
    }

  private:
    struct PerService
    {
        /**
         * Replica-side service times (ns) completed this interval.
         * Ingestion is a flat append on the completion hot path (no
         * per-observation histogram work); percentiles are folded out
         * of the buffer once per control period in sample(), which
         * also clears it.
         */
        std::vector<double> latenciesNs;
        /** Non-OK observer completions this interval. */
        std::uint64_t observedFailures = 0;
        /** Cumulative non-OK status count at the last sample. */
        std::uint64_t lastFailureCount = 0;
        /** Cumulative busy nanoseconds at the last sample. */
        double lastBusyNs = 0.0;
    };

    /** Cumulative non-OK outcomes of a service (all ops, all time). */
    static std::uint64_t cumulativeFailures(const svc::Service &svc);

    std::vector<svc::Service *> services_;
    std::vector<PerService> state_;
    Tick last_sample_at_ = 0;
    double cpus_per_replica_ = 0.0;
};

} // namespace microscale::autoscale

#endif // MICROSCALE_AUTOSCALE_METRICS_HH
