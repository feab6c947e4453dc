#include "autoscale/policy.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace microscale::autoscale
{

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
    case PolicyKind::Static:
        return "static";
    case PolicyKind::Threshold:
        return "threshold";
    case PolicyKind::QueueLaw:
        return "queue-law";
    case PolicyKind::Predictive:
        return "predictive";
    }
    MS_PANIC("invalid PolicyKind");
}

PolicyKind
policyByName(const std::string &name)
{
    for (PolicyKind k : {PolicyKind::Static, PolicyKind::Threshold,
                         PolicyKind::QueueLaw, PolicyKind::Predictive}) {
        if (name == policyName(k))
            return k;
    }
    fatal("unknown scaling policy '", name,
          "' (try static, threshold, queue-law, predictive)");
}

namespace
{

/** Hysteresis rule shared by Threshold and Predictive. */
unsigned
thresholdRule(double utilization, const ServiceSample &sample,
              unsigned currentTarget, const PolicyParams &params)
{
    // A deep backlog means the pool is saturated even if the busy
    // fraction reads below the high-water mark (e.g. right after a
    // scale-out while the queue drains into cold replicas).
    const std::uint64_t backlog_limit =
        static_cast<std::uint64_t>(sample.activeReplicas) *
        sample.workersPerReplica;
    if (utilization > params.utilHigh ||
        (backlog_limit > 0 && sample.queueDepth > backlog_limit))
        return currentTarget + params.scaleOutStep;
    if (utilization < params.utilLow && sample.queueDepth == 0 &&
        currentTarget > 0)
        return currentTarget - 1;
    return currentTarget;
}

class StaticPolicy final : public ScalingPolicy
{
  public:
    unsigned
    desiredReplicas(const ServiceSample &, unsigned currentTarget) override
    {
        return currentTarget;
    }

    PolicyKind kind() const override { return PolicyKind::Static; }
};

class ThresholdPolicy final : public ScalingPolicy
{
  public:
    explicit ThresholdPolicy(const PolicyParams &params) : params_(params)
    {
    }

    unsigned
    desiredReplicas(const ServiceSample &sample,
                    unsigned currentTarget) override
    {
        return thresholdRule(sample.utilization, sample, currentTarget,
                             params_);
    }

    PolicyKind kind() const override { return PolicyKind::Threshold; }

  private:
    PolicyParams params_;
};

class QueueLawPolicy final : public ScalingPolicy
{
  public:
    explicit QueueLawPolicy(const PolicyParams &params) : params_(params)
    {
    }

    unsigned
    desiredReplicas(const ServiceSample &sample,
                    unsigned currentTarget) override
    {
        // Offered rate includes failed/shed requests: demand the
        // service could not serve is still demand.
        const double offered =
            sample.completionsPerSec + sample.failuresPerSec;
        const double service_sec = sample.meanServiceMs / 1e3;
        if (offered <= 0.0 || service_sec <= 0.0 ||
            sample.workersPerReplica == 0)
            return currentTarget;
        // Little's law: concurrent requests in service = rate x time.
        const double workers_needed = offered * service_sec;
        const double replicas =
            workers_needed / (static_cast<double>(sample.workersPerReplica) *
                              params_.targetUtil);
        return static_cast<unsigned>(
            std::max(1.0, std::ceil(replicas)));
    }

    PolicyKind kind() const override { return PolicyKind::QueueLaw; }

  private:
    PolicyParams params_;
};

class PredictivePolicy final : public ScalingPolicy
{
  public:
    explicit PredictivePolicy(const PolicyParams &params) : params_(params)
    {
    }

    unsigned
    desiredReplicas(const ServiceSample &sample,
                    unsigned currentTarget) override
    {
        const double u = sample.utilization;
        if (!primed_) {
            level_ = u;
            trend_ = 0.0;
            primed_ = true;
        } else {
            const double prev_level = level_;
            level_ = params_.ewmaAlpha * u +
                     (1.0 - params_.ewmaAlpha) * (level_ + trend_);
            trend_ = params_.trendBeta * (level_ - prev_level) +
                     (1.0 - params_.trendBeta) * trend_;
        }
        // Forecast one warm-up horizon ahead, in units of control
        // intervals (the trend is per interval).
        double steps = 1.0;
        if (sample.intervalSec > 0.0) {
            steps = ticksToSeconds(params_.horizon) / sample.intervalSec;
        }
        const double predicted =
            std::max(0.0, level_ + trend_ * steps);
        return thresholdRule(predicted, sample, currentTarget, params_);
    }

    PolicyKind kind() const override { return PolicyKind::Predictive; }

  private:
    PolicyParams params_;
    bool primed_ = false;
    double level_ = 0.0;
    double trend_ = 0.0;
};

} // namespace

std::unique_ptr<ScalingPolicy>
makePolicy(PolicyKind kind, const PolicyParams &params)
{
    switch (kind) {
    case PolicyKind::Static:
        return std::make_unique<StaticPolicy>();
    case PolicyKind::Threshold:
        return std::make_unique<ThresholdPolicy>(params);
    case PolicyKind::QueueLaw:
        return std::make_unique<QueueLawPolicy>(params);
    case PolicyKind::Predictive:
        return std::make_unique<PredictivePolicy>(params);
    }
    MS_PANIC("invalid PolicyKind");
}

} // namespace microscale::autoscale
