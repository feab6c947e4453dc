/**
 * @file
 * Mesh: the service registry, transport glue and RPC cost model.
 *
 * Plays the role of TeaStore's registry plus client-side load
 * balancing: services look each other up by name and every message
 * crosses the loopback Network. The CPU cost of the protocol stack is
 * charged to the calling/serving worker threads via a dedicated
 * "netstack" work profile.
 *
 * The mesh also owns the resilience layer: per-edge timeout/retry
 * policies (sendRpc), the retry budget, and the ResilienceConfig that
 * services consult for queue bounds, breaker parameters and balancing
 * mode. With the default (inactive) config every call takes the legacy
 * fast path — identical event stream, identical RNG draws.
 */

#ifndef MICROSCALE_SVC_MESH_HH
#define MICROSCALE_SVC_MESH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "cpu/work.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "svc/overload.hh"
#include "svc/payload.hh"
#include "svc/resilience.hh"
#include "svc/service.hh"
#include "trace/trace.hh"

namespace microscale::svc
{

/** RPC stack cost model. */
struct RpcCostParams
{
    /** Instructions to serialize/deserialize a message, fixed part. */
    double fixedInstructions = 25e3;
    /** Additional instructions per KiB of payload. */
    double perKibInstructions = 6e3;
};

/**
 * Cluster routing policy: decides which machine a call to `target`
 * lands on. Installed by the cluster layer (src/cluster); with no
 * router the mesh never computes node ids and every message takes the
 * single-machine transport path unchanged.
 */
class NodeRouter
{
  public:
    virtual ~NodeRouter() = default;

    /** Machine a request from `src_node` to `target` is routed to. */
    virtual unsigned route(unsigned src_node, const Service &target) = 0;

    /** Machine external (loadgen) traffic enters the cluster on. */
    virtual unsigned ingress() = 0;
};

/**
 * The mesh. Owns the services and the netstack profile.
 */
class Mesh
{
  public:
    Mesh(os::Kernel &kernel, net::Network &network,
         RpcCostParams rpc_params = {}, std::uint64_t seed = 1);

    Mesh(const Mesh &) = delete;
    Mesh &operator=(const Mesh &) = delete;

    os::Kernel &kernel() { return kernel_; }
    net::Network &network() { return network_; }
    std::uint64_t seed() const { return seed_; }

    /** Create and register a service. */
    Service *createService(ServiceParams params);

    /** Lookup by name; fatal() when absent. */
    Service &service(const std::string &name);

    /** True when a service with this name exists. */
    bool hasService(const std::string &name) const;

    /** All services in registration order. */
    const std::vector<std::unique_ptr<Service>> &services() const
    {
        return services_;
    }

    /** Install the resilience configuration (before traffic starts). */
    void setResilience(ResilienceConfig config);

    const ResilienceConfig &resilience() const { return resilience_; }

    /** Install the overload-control configuration (before traffic). */
    void setOverload(OverloadConfig config);

    const OverloadConfig &overload() const { return overload_; }

    const RetryStats &retryStats() const { return retry_stats_; }

    const HedgeStats &hedgeStats() const { return hedge_stats_; }

    /**
     * Install the tracing configuration (before traffic starts). With
     * params.enabled false no store is created and the run is
     * byte-identical to an untraced one.
     */
    void setTrace(const trace::TraceParams &params);

    /** The run's trace store; null when tracing is off. */
    const std::shared_ptr<trace::TraceStore> &traceStore() const
    {
        return trace_store_;
    }

    /**
     * Client entry point: sends `payload` to `service`/`op` over the
     * transport; `respond` fires at the client when the response
     * arrives. No CPU is charged to any worker for the client side.
     * Failures are swallowed (legacy interface); use callExternalS to
     * observe the Status.
     */
    void callExternal(const std::string &service, const std::string &op,
                      Payload payload, ResponseFn respond);

    /** Status-aware client entry point. */
    void callExternalS(const std::string &service, const std::string &op,
                       Payload payload, RespondFn respond);

    /**
     * Issue one RPC on the `client`→`service` edge, applying that
     * edge's timeout/retry policy and the propagated `deadline`
     * (kTickNever = none). `respond` fires exactly once with the final
     * outcome. `inherited` is the caller's criticality tier; when the
     * overload layer is criticality-aware the request is reclassified
     * through its rules before admission. When the edge has no policy
     * and no deadline this is exactly the legacy transport path.
     * `link` ties the call into a sampled trace (a span is recorded
     * per attempt); the default null link records nothing.
     */
    void sendRpc(const std::string &client, const std::string &service,
                 const std::string &op, Payload payload, Tick deadline,
                 Criticality inherited, RespondFn respond,
                 trace::TraceLink link = {},
                 unsigned src_node = kNoNode);

    /**
     * Install the cluster routing policy (nullptr uninstalls). The
     * router must outlive the mesh's traffic. With no router the node
     * fields of every envelope stay 0 and transport is single-machine.
     */
    void setRouter(NodeRouter *router) { router_ = router; }

    NodeRouter *router() const { return router_; }

    /**
     * Ship a response back over the transport. With no router this is
     * exactly network().send(bytes, from, to, deliver); with one, the
     * response crosses the fabric from the serving machine back to the
     * caller's. `trace` accrues the nominal fabric latency of the
     * return hop into the span's fabricNs (untraced = free).
     */
    void sendResponse(std::uint32_t bytes, const std::string &from,
                      const std::string &to, unsigned from_node,
                      unsigned to_node, trace::SpanRef trace,
                      sim::EventFn deliver);

    /** Sentinel for sendRpc's src_node: resolve via router->ingress()
     *  (external traffic) or keep 0 when no router is installed. */
    static constexpr unsigned kNoNode = ~0u;

    /** The profile used for (de)serialization work. */
    const cpu::WorkProfile &netstackProfile() const { return netstack_; }

    /** Serialization instruction count for a payload size. */
    double rpcInstructions(std::uint32_t bytes) const;

  private:
    struct Call;

    /**
     * Start the call's next leg: its span (attempt number, retryOf,
     * backoff), the effective deadline with its immediate-timeout
     * check, the settle-once timer, the re-route and the envelope
     * with the hedge anti-affinity hint.
     */
    void launch(const std::shared_ptr<Call> &call);

    /** A leg's response or timeout arrived: stamp its span, then pass
     *  the outcome to the edge's policy. */
    void settle(const std::shared_ptr<Call> &call, unsigned leg_index,
                const Payload &response, Status status);

    /** Retry ladder: retry the failed attempt or deliver the outcome. */
    void finishAttempt(const std::shared_ptr<Call> &call,
                       unsigned attempt_no, const Payload &response,
                       Status status);

    /** Hedged edge: the first Ok leg wins and cancels the others. */
    void finishLeg(const std::shared_ptr<Call> &call, unsigned leg_index,
                   const Payload &response, Status status);

    /** Arm (or re-arm) the hedge-delay timer of a hedged call. */
    void armHedgeTimer(const std::shared_ptr<Call> &call);

    /** Hedge delay for an edge: observed latency quantile once the
     *  edge has enough samples, else the policy's fixed delay. */
    Tick hedgeDelayFor(const std::string &client,
                       const std::string &service,
                       const HedgePolicy &policy);

    /** Spend one retry token if the budget allows. */
    bool takeRetryToken();

    /** Spend one hedge token if the budget allows. */
    bool takeHedgeToken();

    /** Sample an external request; null link when untraced. */
    trace::TraceLink maybeStartTrace();

    /** Record a new span for one attempt of a linked call. */
    trace::SpanRef startSpan(const trace::TraceLink &link,
                             const std::string &client,
                             const std::string &service,
                             const std::string &op, unsigned attempt_no,
                             trace::SpanId retry_of, Tick backoff);

    /** Wrap `inner` to stamp the span's client completion first. */
    RespondFn traceWrap(trace::SpanRef ref, RespondFn inner);

    os::Kernel &kernel_;
    net::Network &network_;
    RpcCostParams rpc_params_;
    std::uint64_t seed_;
    cpu::WorkProfile netstack_;
    std::vector<std::unique_ptr<Service>> services_;
    std::map<std::string, Service *> by_name_;
    ResilienceConfig resilience_;
    OverloadConfig overload_;
    /** Cluster routing policy; null on single-machine runs. */
    NodeRouter *router_ = nullptr;
    /** Jitter for retry backoff; only drawn from when a retry fires. */
    Rng retry_rng_;
    /** Token-bucket retry budget (tokens accrue per first attempt). */
    double retry_tokens_ = 0.0;
    RetryStats retry_stats_;
    /** Jitter for hedge delays; only drawn from when a hedge timer is
     * armed on a hedge-enabled edge. */
    Rng hedge_rng_;
    /** Token-bucket hedge budget (tokens accrue per first attempt on
     * hedge-enabled edges, one spent per hedge launched). */
    double hedge_tokens_ = 0.0;
    HedgeStats hedge_stats_;
    /**
     * Observed Ok-response latency per edge hedged on a delay quantile
     * ("client|service"), feeding that trigger. Edges with a fixed
     * hedge delay never touch it.
     */
    std::map<std::string, QuantileHistogram> hedge_latency_;
    /** Trace sampling; only drawn from when tracing is on and the
     * sampling rate is fractional. */
    Rng trace_rng_;
    /** Created by setTrace when tracing is enabled; null otherwise. */
    std::shared_ptr<trace::TraceStore> trace_store_;
};

} // namespace microscale::svc

#endif // MICROSCALE_SVC_MESH_HH
