/**
 * @file
 * Service: a named microservice with replicas, worker threads and
 * string-keyed operation handlers written in continuation-passing
 * style against a HandlerCtx.
 *
 * Concurrency model mirrors a servlet container: each replica owns a
 * pool of worker threads; a worker processes one request at a time and
 * blocks (holding no CPU) while waiting on downstream calls. Requests
 * beyond the worker count wait in the replica's queue.
 *
 * The resilience layer adds (all off by default, see
 * svc/resilience.hh): bounded queues with OVERLOAD shedding, deadline
 * drops at dequeue, per-replica circuit breakers with half-open
 * probes, health-aware replica selection, scripted crash/restart
 * (setReplicaDown) and compute brownouts (setSlowdown).
 *
 * The elasticity layer (src/autoscale) adds runtime scale-out and
 * scale-in: addReplica() spawns a replica that warms up (registration
 * delay, then a decaying cold-cache compute penalty) before taking
 * traffic, and drainReplica() stops routing to a replica and retires
 * it once its queue and workers empty. Services that never scale keep
 * every replica Active and behave exactly as before.
 */

#ifndef MICROSCALE_SVC_SERVICE_HH
#define MICROSCALE_SVC_SERVICE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/cpumask.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "cpu/counters.hh"
#include "cpu/work.hh"
#include "os/thread.hh"
#include "svc/overload.hh"
#include "svc/payload.hh"
#include "svc/resilience.hh"

namespace microscale::svc
{

class Mesh;
class Service;
struct Worker;

/** Static configuration of one service. */
struct ServiceParams
{
    std::string name;
    /** Default compute profile for HandlerCtx::compute. */
    cpu::WorkProfile profile;
    unsigned replicas = 1;
    unsigned workersPerReplica = 16;
    /** Coefficient of variation applied to compute() budgets. */
    double computeCv = 0.15;
};

/**
 * Per-invocation context handed to operation handlers. All async
 * primitives run their continuation from event context; a handler
 * chain must terminate with done() (fail() is done() with a non-OK
 * status).
 */
class HandlerCtx
{
  public:
    /** The request payload. */
    const Payload &request() const { return envelope_.request; }

    /** Response payload; mutate before calling done(). */
    Payload &response() { return response_; }

    /** Deterministic per-service RNG stream. */
    Rng &rng();

    /** Current simulated time. */
    Tick now() const;

    /** The service executing this handler. */
    Service &service() { return service_; }

    /** Absolute deadline propagated with this request (kTickNever = none). */
    Tick deadline() const { return envelope_.deadline; }

    /** Cluster node of the replica serving this request (0 on
     * single-machine runs, where no node placement exists). */
    unsigned clusterNode() const { return envelope_.dstNode; }

    /**
     * Execute `instructions` of the service's default profile on the
     * worker thread, then continue.
     */
    void compute(double instructions, sim::EventFn next);

    /** Execute work under an explicit profile. */
    void computeProfile(const cpu::WorkProfile &profile,
                        double instructions, sim::EventFn next);

    /**
     * Issue a downstream RPC; `next` receives the response payload.
     * Serialization work is charged to this worker before the message
     * leaves and after the response arrives. The caller's deadline and
     * the mesh's edge policy apply. On a non-OK outcome the handler
     * fails with that status (the continuation never runs); use the
     * status-aware overload to handle failures (e.g. degrade).
     */
    void call(const std::string &service, const std::string &op,
              Payload request_payload,
              std::function<void(const Payload &)> next);

    /** Status-aware variant: `next` always runs, with the outcome. */
    void call(const std::string &service, const std::string &op,
              Payload request_payload,
              std::function<void(const Payload &, Status)> next);

    /** One leg of a parallel fan-out. */
    struct CallSpec
    {
        std::string service;
        std::string op;
        Payload request;
    };

    /**
     * Issue several downstream RPCs concurrently; `next` receives the
     * responses in the order the calls were given, once all have
     * arrived. Serialization of all requests is charged up front,
     * deserialization of all responses before `next`. Any non-OK leg
     * fails the handler with the first failing status.
     */
    void callAll(std::vector<CallSpec> calls,
                 std::function<void(const std::vector<Payload> &)> next);

    /** Status-aware variant: `next` always runs, with per-leg status. */
    void callAll(std::vector<CallSpec> calls,
                 std::function<void(const std::vector<Payload> &,
                                    const std::vector<Status> &)>
                     next);

    /**
     * Append a note to this request's trace span ("brownout-dim" and
     * the like). No-op when the request is untraced.
     */
    void traceAnnotate(const std::string &note);

    /** True when this request records into a sampled trace. */
    bool traced() const
    {
        return static_cast<bool>(envelope_.trace);
    }

    /** Finish: serialize and send the response, release the worker. */
    void done();

    /**
     * Finish with a non-OK status: the caller's continuation sees
     * `status` and a minimal response payload.
     */
    void fail(Status status);

  private:
    friend class Service;

    HandlerCtx(Service &service, Worker &worker, Envelope envelope);

    Service &service_;
    Worker &worker_;
    Envelope envelope_;
    Payload response_;
    Status status_ = Status::Ok;
    bool finished_ = false;
    /** When the handler was dispatched to the worker. */
    Tick dispatched_ = 0;
    /** Worker busy-ns counter at dispatch (for compute attribution). */
    double busy_at_dispatch_ = 0.0;
    /** Fan-out groups issued so far (trace span grouping). */
    std::uint32_t trace_groups_ = 0;
};

/** One worker thread of a replica. */
struct Worker
{
    os::Thread *thread = nullptr;
    unsigned replica = 0;
    std::unique_ptr<HandlerCtx> current;
};

/** Circuit-breaker state of one replica. */
struct BreakerState
{
    enum class State
    {
        Closed,
        Open,
        HalfOpen,
    };

    State state = State::Closed;
    unsigned consecutiveFailures = 0;
    /** Rolling outcome window (true = failure). */
    std::deque<bool> window;
    unsigned windowFailures = 0;
    Tick openedAt = 0;
    /** A half-open probe has been admitted and has not resolved. */
    bool probeInFlight = false;
};

/** Lifecycle of a replica under elasticity. */
enum class ReplicaState
{
    /** Serving traffic (the only state replicas reach without
     * elasticity). */
    Active,
    /** Spawned but still registering; receives no traffic yet. */
    Warming,
    /** Removed from routing; finishes queued/in-flight work. */
    Draining,
    /** Drained to empty; permanently out of service. */
    Retired,
};

const char *replicaStateName(ReplicaState state);

/** A replica: a queue plus its workers. */
struct Replica
{
    std::deque<Envelope> queue;
    std::vector<std::size_t> workerIndexes;
    std::size_t maxQueueDepth = 0;
    /** Crashed (scripted fault); rejects all traffic. */
    bool down = false;
    /**
     * Gray-failure compute multiplier for this replica alone (scripted
     * ReplicaSlow fault). 1.0 is an exact identity.
     */
    double slowFactor = 1.0;
    BreakerState breaker;
    /** Outlier-ejection EWMA of replica-side latency (ns). */
    double outLatEwma = 0.0;
    /** Outlier-ejection EWMA of the failure indicator (error rate). */
    double outErrEwma = 0.0;
    /** Samples folded into the EWMAs since (un)ejection. */
    unsigned outSamples = 0;
    /** Currently ejected by the outlier detector. */
    bool ejected = false;
    /** When an ejected replica may rejoin the rotation. */
    Tick ejectedUntil = 0;
    /** Smooth-weighted-round-robin credit (health-weighted pick). */
    double wrrCredit = 0.0;
    ReplicaState state = ReplicaState::Active;
    /** When a Warming replica became Active (cold window start). */
    Tick warmedAt = 0;
    /** End of the cold-cache window (<= warmedAt means never cold). */
    Tick coldUntil = 0;
    /** Compute multiplier at activation; decays linearly to 1. */
    double coldFactor = 1.0;
    /**
     * Cluster machine this replica runs on; -1 means unassigned
     * (single-machine runs never assign or consult it).
     */
    int clusterNode = -1;
    /**
     * Adaptive concurrency limiter (overload layer); created lazily on
     * the first submit when admission control is configured.
     */
    std::unique_ptr<ConcurrencyLimiter> limiter;
    /** Limit trajectory over the run (valid once the limiter exists). */
    LimiterTrace limiterTrace;
    /** CoDel controller state for this replica's queue. */
    CoDelState codel;
};

/** Operation-level statistics. */
struct OpStats
{
    std::uint64_t requests = 0;
    /** Arrival at replica to response handed to transport, in ns. */
    QuantileHistogram serviceTimeNs;
    /** Time the envelope waited for a free worker, in ns. */
    QuantileHistogram queueWaitNs;
    /**
     * CPU time the worker spent on this request (handler compute plus
     * RPC serialization), in ns.
     */
    QuantileHistogram computeNs;
    /**
     * Non-CPU time inside the handler: blocked on downstream calls or
     * preempted off-CPU (serviceTime - queueWait - compute), in ns.
     */
    QuantileHistogram stallNs;
    /** Outcomes by Status (includes shed/dropped/rejected requests). */
    std::array<std::uint64_t, kNumStatuses> statusCounts{};
};

/**
 * A microservice.
 */
class Service
{
  public:
    /**
     * Construct and register worker threads with the kernel. Workers
     * start with machine-wide affinity and first-touch memory; use
     * setReplicaPlacement to pin.
     */
    Service(Mesh &mesh, ServiceParams params);

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    const std::string &name() const { return params_.name; }
    const ServiceParams &params() const { return params_; }
    Mesh &mesh() { return mesh_; }

    /** All replicas ever created, including warming/draining/retired. */
    unsigned replicaCount() const
    {
        return static_cast<unsigned>(replicas_.size());
    }

    /** Replicas currently serving traffic. */
    unsigned activeReplicaCount() const;

    /** Register an operation handler. */
    void addOp(const std::string &op,
               std::function<void(HandlerCtx &)> handler);

    /**
     * Enqueue a request (round-robin over replicas; health-aware when
     * the mesh's resilience config enables it). Called by the Mesh
     * after transport delivery. May reject immediately with OVERLOAD
     * (bounded queue) or UNAVAILABLE (replica down / breaker open).
     */
    void submit(Envelope envelope);

    /**
     * Pin one replica's workers to a CPU set and home their memory on
     * `home_node` (kInvalidNode keeps first-touch).
     */
    void setReplicaPlacement(unsigned replica, const CpuMask &affinity,
                             NodeId home_node);

    /**
     * Crash or restart a replica. Crashing fails every queued request
     * with UNAVAILABLE; handlers already on workers run to completion
     * (the sim has no mid-handler abort). Restarting resets the
     * replica's breaker.
     */
    void setReplicaDown(unsigned replica, bool down);

    /** True when the replica is scripted down. */
    bool replicaDown(unsigned replica) const;

    /**
     * Gray failure: multiply one replica's compute budgets by `factor`
     * (1.0 restores nominal speed). Unlike setSlowdown this is
     * per-replica, modeling a degraded host rather than a brownout.
     */
    void setReplicaSlow(unsigned replica, double factor);

    /** Current gray-slowdown factor of one replica. */
    double replicaSlow(unsigned replica) const;

    /**
     * CCX the replica's workers are pinned to: the common CCX of all
     * worker affinities, or -1 when any worker spans CCXs (OS-default
     * placement). Used by correlated-failure injection.
     */
    int replicaCcx(unsigned replica) const;

    /**
     * Assign one replica to a cluster machine. The mesh's NodeRouter
     * (when installed) constrains routing to replicas on the message's
     * destination machine; -1 detaches the replica from any machine.
     */
    void setReplicaClusterNode(unsigned replica, int node);

    /** Cluster machine of one replica (-1 = unassigned). */
    int replicaClusterNode(unsigned replica) const;

    /** Replicas currently Active on cluster machine `node`. */
    unsigned activeReplicasOnNode(int node) const;

    /** True when the outlier detector currently ejects the replica. */
    bool replicaEjected(unsigned replica) const;

    /** Replicas currently ejected by the outlier detector. */
    unsigned ejectedReplicaCount() const;

    /** Warm-up model for replicas added at runtime. */
    struct WarmupParams
    {
        /** Delay between spawn and first routed request (registry
         * propagation, container start). */
        Tick registrationDelay = 2 * kSecond;
        /** After activation, compute budgets decay from coldFactor
         * down to 1.0 over this window (cold caches, JIT, pools). */
        Tick coldWindow = 5 * kSecond;
        /** Compute multiplier at the moment of activation (>= 1). */
        double coldFactor = 1.8;
    };

    /**
     * Spawn one replica at runtime. It starts Warming (no traffic),
     * becomes Active after the registration delay and then serves with
     * a decaying cold-cache compute penalty. Workers start with
     * machine-wide affinity; call setReplicaPlacement to pin them.
     * Returns the new replica's index.
     */
    unsigned addReplica(const WarmupParams &warmup);

    /**
     * Take a replica out of the routing rotation. Queued and in-flight
     * requests complete normally; once the replica is empty it retires
     * for good. Draining the last routable replica is refused.
     */
    void drainReplica(unsigned replica);

    ReplicaState replicaState(unsigned replica) const;

    /** Runtime scale-out/scale-in event counts (whole run). */
    std::uint64_t replicasAdded() const { return replicas_added_; }
    std::uint64_t replicasRetired() const { return replicas_retired_; }

    /**
     * Observer invoked once per completed request (after stats are
     * recorded) with the op, the replica-side service time in ns and
     * the outcome. None by default; observers stack, so
     * autoscale::MetricsBus and svc::BrownoutController can listen to
     * the same service independently.
     */
    using CompletionObserver = std::function<void(
        const std::string &op, double serviceTimeNs, Status status)>;

    void addCompletionObserver(CompletionObserver observer)
    {
        completion_observers_.push_back(std::move(observer));
    }

    /**
     * Observer invoked after a replica's availability actually changes
     * (setReplicaDown with a new value; repeated sets are filtered).
     * The cluster quorum layer uses this to start hinting on the down
     * edge and replay hints on the up edge.
     */
    using AvailabilityObserver =
        std::function<void(unsigned replica, bool down)>;

    void addAvailabilityObserver(AvailabilityObserver observer)
    {
        availability_observers_.push_back(std::move(observer));
    }

    /**
     * Brownout: multiply every compute() budget by `factor` (applied
     * before the lognormal draw). 1.0 restores nominal speed.
     */
    void setSlowdown(double factor);

    double slowdown() const { return slowdown_; }

    /** Sum of all worker thread counters. */
    cpu::PerfCounters aggregateCounters() const;

    /** Per-op statistics. */
    const std::map<std::string, OpStats> &opStats() const
    {
        return op_stats_;
    }

    /** Queue-wait distribution across all replicas. */
    const QuantileHistogram &queueWaitNs() const { return queue_wait_ns_; }

    /** Total requests processed. */
    std::uint64_t requestsProcessed() const { return requests_; }

    /** Resilience accounting (whole run; not reset by resetStats). */
    const ResilienceCounters &resilienceCounters() const
    {
        return resilience_counters_;
    }

    /** Overload-control accounting (whole run; not reset). */
    const OverloadCounters &overloadCounters() const
    {
        return overload_counters_;
    }

    /** Concurrency-limit trajectory aggregated over all replicas. */
    LimiterTrace limiterSummary() const;

    /** Current limit of one replica's limiter (tests; 0 = no limiter). */
    double replicaLimit(unsigned replica) const;

    /** Breaker state of one replica (tests/diagnostics). */
    const BreakerState &breakerState(unsigned replica) const;

    /** Worker threads (for perf attribution and tests). */
    const std::deque<Worker> &workers() const { return workers_; }

    /** Busy workers right now (for utilization probes). */
    unsigned busyWorkers() const;

    /** Requests waiting in replica queues right now. */
    std::uint64_t queuedRequests() const;

    /** Requests waiting in one replica's queue right now. */
    std::uint64_t queuedRequests(unsigned replica) const;

    /** Reset per-op and queue statistics (not thread counters). */
    void resetStats();

  private:
    friend class HandlerCtx;

    /** Hand the next queued envelope to an idle worker, if any. */
    void pump(unsigned replica);

    /** Worker finished its envelope. */
    void workerDone(Worker &worker);

    /** Begin handler execution on a worker. */
    void dispatch(Worker &worker, Envelope envelope);

    /**
     * Choose a replica for a new request. Plain round-robin unless
     * health-aware balancing is on, in which case down and
     * breaker-open replicas are skipped (half-open replicas admit one
     * probe). Returns -1 when no replica is admissible; `probe` is set
     * when the chosen replica admitted this as its half-open probe.
     * With `constrained` (a NodeRouter is installed) only replicas on
     * cluster machine `node` are eligible, with per-machine rotation.
     * `avoid` is the anti-affinity hint (-1 = none): that replica
     * yields to any other eligible one but still serves as the last
     * resort.
     */
    int pickReplica(bool &probe, bool constrained, unsigned node,
                    int avoid = -1);

    /**
     * True when the breaker admits traffic to the replica now; sets
     * `probe` when the admission is the half-open probe.
     */
    bool breakerAdmits(BreakerState &breaker, Tick now, bool &probe);

    /**
     * Side-effect-free preview of breakerAdmits: would the breaker
     * admit a (non-probe) request right now? Used by the health-
     * weighted picker to score candidates without mutating the breaker
     * of replicas that end up not picked.
     */
    bool breakerWouldAdmit(const BreakerState &breaker, Tick now) const;

    /**
     * Feed the outlier detector one completed-request sample for a
     * replica (latency in ns, failure flag) and eject it when its
     * EWMAs diverge from the service norm. No-op unless
     * resilience.outlier.enabled.
     */
    void outlierObserve(unsigned replica, double latency_ns, bool failed);

    /** Record a request outcome against the replica's breaker. */
    void breakerRecord(unsigned replica, bool ok, bool probe);

    /** Respond to an envelope with a failure status (no worker) and
     *  count that status against its op. */
    void rejectEnvelope(Envelope &envelope, Status status);

    /** True when the replica has an idle worker. */
    bool hasIdleWorker(const Replica &replica) const;

    /** Workers of this replica currently executing a handler. */
    unsigned busyWorkerCount(const Replica &replica) const;

    /**
     * Overload-layer admission decision for a new request: true admits.
     * False means the adaptive limiter (scaled by the request's
     * criticality tier) refused it; the caller rejects with
     * Status::Rejected and must not record a breaker outcome.
     */
    bool admissionAdmits(Replica &replica, const Envelope &envelope);

    /** Feed the replica's limiter one latency/drop sample. */
    void limiterObserve(unsigned replica, double latency_ns, bool dropped);

    /** Create one replica's workers (construction and addReplica). */
    void spawnWorkers(unsigned replica);

    /** Retire a Draining replica once its queue and workers are empty. */
    void maybeRetire(unsigned replica);

    /** Cold-cache compute multiplier of a worker's replica right now. */
    double coldComputeFactor(unsigned replica, Tick now) const;

    Mesh &mesh_;
    ServiceParams params_;
    Rng rng_;
    std::map<std::string, std::function<void(HandlerCtx &)>> ops_;
    /** Deque: HandlerCtx holds Worker&, so runtime scale-out must not
     * relocate existing workers. */
    std::deque<Worker> workers_;
    std::deque<Replica> replicas_;
    unsigned rr_next_ = 0;
    /** Per-machine rotation cursors (node-constrained routing only). */
    std::vector<unsigned> rr_by_node_;
    /** Service-wide outlier-detector latency EWMA (ns) and samples. */
    double out_svc_lat_ewma_ = 0.0;
    std::uint64_t out_svc_samples_ = 0;
    std::map<std::string, OpStats> op_stats_;
    QuantileHistogram queue_wait_ns_;
    std::uint64_t requests_ = 0;
    double slowdown_ = 1.0;
    ResilienceCounters resilience_counters_;
    OverloadCounters overload_counters_;
    std::uint64_t replicas_added_ = 0;
    std::uint64_t replicas_retired_ = 0;
    std::vector<CompletionObserver> completion_observers_;
    std::vector<AvailabilityObserver> availability_observers_;
};

} // namespace microscale::svc

#endif // MICROSCALE_SVC_SERVICE_HH
