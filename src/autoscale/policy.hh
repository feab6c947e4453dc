/**
 * @file
 * Scaling policies: map one service's interval sample to a desired
 * replica count. Three families from the autoscaling literature:
 *
 *  - Threshold: classic reactive hysteresis on worker utilization
 *    (scale out above the high-water mark, in below the low-water
 *    mark, hold in between).
 *  - QueueLaw: sizes the pool from Little's law - offered rate times
 *    mean service time gives the worker-seconds per second the
 *    service must supply; divide by workers per replica at the target
 *    utilization.
 *  - Predictive: Holt's linear exponential smoothing on utilization;
 *    the threshold rule is applied to the utilization forecast one
 *    warm-up horizon ahead, so capacity is requested before the ramp
 *    arrives rather than after it is felt.
 *
 * Policies hold per-service smoothing state: instantiate one policy
 * object per scaled service. Cooldowns, min/max clamps and actuation
 * live in the Autoscaler, not here.
 */

#ifndef MICROSCALE_AUTOSCALE_POLICY_HH
#define MICROSCALE_AUTOSCALE_POLICY_HH

#include <memory>
#include <string>

#include "autoscale/metrics.hh"
#include "base/types.hh"

namespace microscale::autoscale
{

/** Policy families under study (Static = never scale). */
enum class PolicyKind
{
    Static,
    Threshold,
    QueueLaw,
    Predictive,
};

/** Short identifier, e.g. "queue-law". */
const char *policyName(PolicyKind kind);

/** Inverse of policyName; fatal() on an unknown name. */
PolicyKind policyByName(const std::string &name);

/** Tunables shared by the policy families. */
struct PolicyParams
{
    /** Threshold/Predictive: scale out above this utilization. */
    double utilHigh = 0.75;
    /** Threshold/Predictive: scale in below this utilization. */
    double utilLow = 0.30;
    /** Replicas added per scale-out decision. */
    unsigned scaleOutStep = 1;

    /** QueueLaw: utilization the sized pool should run at. */
    double targetUtil = 0.60;

    /** Predictive: level smoothing factor. */
    double ewmaAlpha = 0.35;
    /** Predictive: trend smoothing factor. */
    double trendBeta = 0.25;
    /** Predictive: forecast horizon (roughly the replica warm-up). */
    Tick horizon = 4 * kSecond;
};

/** Per-service policy instance. */
class ScalingPolicy
{
  public:
    virtual ~ScalingPolicy() = default;

    /**
     * The replica count (active + warming) the service should have,
     * given this interval's sample and the current target. Returning
     * the current target means "hold".
     */
    virtual unsigned desiredReplicas(const ServiceSample &sample,
                                     unsigned currentTarget) = 0;

    virtual PolicyKind kind() const = 0;
};

/** Build one policy instance (call once per scaled service). */
std::unique_ptr<ScalingPolicy> makePolicy(PolicyKind kind,
                                          const PolicyParams &params);

} // namespace microscale::autoscale

#endif // MICROSCALE_AUTOSCALE_POLICY_HH
