#include "svc/mesh.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "sim/simulation.hh"

namespace microscale::svc
{

/**
 * State of one logical RPC on an edge with a policy or a deadline.
 * Every attempt is a leg: the retry ladder runs its legs one after
 * another, a hedged edge races up to 1 + maxHedges of them to a
 * first-response-wins settle. Hedging replaces the retry ladder on its
 * edge: an edge with both hedge and retry configured hedges only. Kept
 * alive by the shared_ptr captured in the transport/timer closures.
 */
struct Mesh::Call
{
    Service *target = nullptr;
    std::string op;
    Payload payload;
    /** Propagated absolute deadline (kTickNever = none). */
    Tick deadline = kTickNever;
    EdgePolicy policy;
    Criticality criticality = Criticality::Normal;
    RespondFn respond;
    /** Caller's name (span labeling; kExternalClient for roots). */
    std::string client;
    /** Trace link of the logical call; null when untraced. */
    trace::TraceLink link;
    /** Machine the caller runs on (0 unless a router is installed). */
    unsigned srcNode = 0;
    /** Span of the first leg (later legs point at it via retryOf). */
    trace::SpanId firstSpan = trace::kNoSpan;
    /** Backoff delay preceding the next retry (recorded into its
     * span, then cleared). */
    Tick pendingBackoff = 0;
    /** Call settled: exactly one respond() has fired. */
    bool done = false;
    /** Legs still racing (launched, not yet settled or cancelled). */
    unsigned legsOpen = 0;

    // Hedged edges only.
    /** Replica the first leg landed on (anti-affinity for hedge legs);
     * -1 until the first leg is dispatched. */
    std::shared_ptr<int> firstReplica;
    /** Timer that launches the next hedge leg. */
    sim::EventHandle hedgeTimer;
    /** Hedge delay the timer was armed with (re-arm uses the same). */
    Tick hedgeDelay = 0;
    /** Outcome of the most recent failed leg (final answer when every
     * leg fails). */
    Payload lastResponse;
    Status lastStatus = Status::Unavailable;

    struct Leg
    {
        /** Timeout timer (cancelled when a response settles the leg). */
        sim::EventHandle timer;
        /** Span of this leg; kNoSpan when untraced. */
        trace::SpanId span = trace::kNoSpan;
        /** Issue tick (latency sample on Ok, without needing a trace). */
        Tick issued = 0;
        /** Not yet settled or cancelled: the settle-once guard of the
         * leg's timer and response. */
        bool open = false;
    };
    std::vector<Leg> legs;

    bool hedged() const { return policy.hedge.enabled(); }

    bool deadlineOpen(Tick now) const
    {
        return deadline == kTickNever || now < deadline;
    }

    /** Fire the call's one respond() with its final outcome. */
    void deliver(const Payload &response, Status status)
    {
        done = true;
        if (respond)
            respond(response, status);
    }
};

Mesh::Mesh(os::Kernel &kernel, net::Network &network,
           RpcCostParams rpc_params, std::uint64_t seed)
    : kernel_(kernel),
      network_(network),
      rpc_params_(rpc_params),
      seed_(seed),
      retry_rng_(seed, "mesh.retry"),
      hedge_rng_(seed, "mesh.hedge"),
      trace_rng_(seed, "mesh.trace")
{
    netstack_.name = "netstack";
    netstack_.ipcBase = 0.9;
    netstack_.branchMpki = 6.0;
    netstack_.icacheMpki = 14.0;
    netstack_.l3Apki = 2.2;
    netstack_.wssBytes = 1.0 * 1024 * 1024;
    netstack_.smtYield = 0.65;
    netstack_.kernelShare = 0.85;
}

Service *
Mesh::createService(ServiceParams params)
{
    if (by_name_.count(params.name))
        fatal("duplicate service name '", params.name, "'");
    services_.push_back(std::make_unique<Service>(*this, params));
    Service *svc = services_.back().get();
    by_name_[svc->name()] = svc;
    return svc;
}

Service &
Mesh::service(const std::string &name)
{
    auto it = by_name_.find(name);
    if (it == by_name_.end())
        fatal("unknown service '", name, "'");
    return *it->second;
}

bool
Mesh::hasService(const std::string &name) const
{
    return by_name_.count(name) != 0;
}

void
Mesh::setResilience(ResilienceConfig config)
{
    resilience_ = std::move(config);
}

void
Mesh::setOverload(OverloadConfig config)
{
    overload_ = std::move(config);
}

void
Mesh::setTrace(const trace::TraceParams &params)
{
    trace_store_ =
        params.enabled ? std::make_shared<trace::TraceStore>(params)
                       : nullptr;
}

trace::TraceLink
Mesh::maybeStartTrace()
{
    if (!trace_store_)
        return {};
    trace_store_->noteRoot();
    if (trace_store_->full())
        return {};
    const double rate = trace_store_->params().sampleRate;
    if (rate <= 0.0)
        return {};
    if (rate < 1.0 && !(trace_rng_.uniform01() < rate))
        return {};
    return {trace_store_->newTrace(), trace::kNoSpan, 0};
}

trace::SpanRef
Mesh::startSpan(const trace::TraceLink &link, const std::string &client,
                const std::string &service, const std::string &op,
                unsigned attempt_no, trace::SpanId retry_of,
                Tick backoff)
{
    const trace::SpanId id = link.trace->addSpan();
    trace::Span &span = link.trace->span(id);
    span.parent = link.parent;
    span.group = link.group;
    span.attempt = attempt_no;
    span.retryOf = retry_of;
    span.client = client;
    span.service = service;
    span.op = op;
    span.clientIssue = kernel_.sim().now();
    span.backoffBefore = backoff;
    return {link.trace, id};
}

RespondFn
Mesh::traceWrap(trace::SpanRef ref, RespondFn inner)
{
    return [this, ref, inner = std::move(inner)](const Payload &resp,
                                                 Status status) {
        trace::Span &span = ref.trace->span(ref.span);
        span.clientComplete = kernel_.sim().now();
        span.clientStatus = status;
        inner(resp, status);
    };
}

void
Mesh::callExternal(const std::string &service, const std::string &op,
                   Payload payload, ResponseFn respond)
{
    RespondFn wrapped;
    if (respond) {
        wrapped = [respond = std::move(respond)](const Payload &resp,
                                                 Status) { respond(resp); };
    }
    callExternalS(service, op, std::move(payload), std::move(wrapped));
}

void
Mesh::callExternalS(const std::string &service, const std::string &op,
                    Payload payload, RespondFn respond)
{
    // Every external request is a potential trace root; with tracing
    // off maybeStartTrace returns the null link for free.
    sendRpc(kExternalClient, service, op, std::move(payload), kTickNever,
            Criticality::Normal, std::move(respond), maybeStartTrace());
}

void
Mesh::sendRpc(const std::string &client, const std::string &service,
              const std::string &op, Payload payload, Tick deadline,
              Criticality inherited, RespondFn respond,
              trace::TraceLink link, unsigned src_node)
{
    Service &target = this->service(service);
    const EdgePolicy &pol = resilience_.policyFor(client, service);

    // Cluster routing: resolve the caller's machine (external traffic
    // enters at the router's ingress) and the target machine for this
    // call. Without a router both stay 0 and nothing below changes.
    unsigned src = 0;
    unsigned dst = 0;
    if (router_) {
        src = src_node == kNoNode ? router_->ingress() : src_node;
        dst = router_->route(src, target);
    }

    // Criticality-aware admission reclassifies the request at the
    // server's door; otherwise the caller's tier rides along untouched
    // (and is ignored downstream, keeping inactive runs identical).
    const Criticality tier =
        overload_.criticalityAware
            ? overload_.classify(service, op, inherited)
            : inherited;

    if (!pol.hasTimeout() && !pol.canRetry() && !pol.hedge.enabled() &&
        deadline == kTickNever) {
        // No policy, no inherited deadline: the legacy transport path
        // (identical events, no timers, no per-call allocation). A
        // sampled trace only adds the span bookkeeping: no events, no
        // RNG draws, and fire-and-forget calls stay unwrapped.
        trace::SpanRef ref;
        if (link) {
            ref = startSpan(link, client, service, op, /*attempt_no=*/1,
                            trace::kNoSpan, /*backoff=*/0);
            if (respond)
                respond = traceWrap(ref, std::move(respond));
        }
        if (ref && src != dst) {
            ref.trace->span(ref.span).fabricNs += static_cast<double>(
                network_.fabricLatencyNominal(payload.bytes, src, dst));
        }
        network_.sendVia(
            payload.bytes, client, service, src, dst,
            [this, &target, client, op, payload, tier, ref, src, dst,
             respond = std::move(respond)]() mutable {
                Envelope env;
                env.op = op;
                env.request = payload;
                env.respond = std::move(respond);
                // A duplicated delivery (PacketDup) invokes
                // this again: hand the responder to the first
                // copy only, the dup becomes fire-and-forget.
                respond = nullptr;
                env.client = client;
                env.arrived = kernel_.sim().now();
                env.criticality = tier;
                env.trace = ref;
                env.srcNode = src;
                env.dstNode = dst;
                target.submit(std::move(env));
            });
        return;
    }

    // Hedge tokens accrue per first attempt of a hedge-enabled edge
    // and retry tokens per first attempt of a retry-capable one; each
    // launched hedge or retry spends one. The caps bound bursts after
    // idle.
    const bool hedged = pol.hedge.enabled();
    if (hedged) {
        hedge_tokens_ = std::min(
            hedge_tokens_ + resilience_.hedgeBudgetRatio, 50.0);
        ++hedge_stats_.firstAttempts;
    } else if (pol.canRetry()) {
        retry_tokens_ = std::min(
            retry_tokens_ + resilience_.retryBudgetRatio, 50.0);
    }

    auto call = std::make_shared<Call>();
    call->target = &target;
    call->op = op;
    call->payload = std::move(payload);
    call->deadline = deadline;
    call->policy = pol;
    call->criticality = tier;
    call->respond = std::move(respond);
    call->client = client;
    call->link = link;
    call->srcNode = src;
    launch(call);
    if (!hedged || call->done)
        return;
    call->hedgeDelay =
        hedgeDelayFor(call->client, call->target->name(), pol.hedge);
    if (call->hedgeDelay > 0)
        armHedgeTimer(call);
}

void
Mesh::launch(const std::shared_ptr<Call> &call)
{
    const Tick now = kernel_.sim().now();
    const unsigned leg_index = static_cast<unsigned>(call->legs.size());
    Call::Leg &leg = call->legs.emplace_back();
    leg.issued = now;
    leg.open = true;
    ++call->legsOpen;

    trace::SpanRef ref;
    if (call->link) {
        ref = startSpan(call->link, call->client, call->target->name(),
                        call->op, leg_index + 1,
                        leg_index == 0 ? trace::kNoSpan : call->firstSpan,
                        call->pendingBackoff);
        call->pendingBackoff = 0;
        if (leg_index == 0)
            call->firstSpan = ref.span;
        leg.span = ref.span;
    }
    // Effective deadline of this leg: the propagated deadline capped
    // by the per-attempt edge timeout.
    Tick eff = call->deadline;
    if (call->policy.hasTimeout())
        eff = std::min(eff, now + call->policy.timeout);
    if (ref) {
        trace::Span &span = ref.trace->span(ref.span);
        span.hedge = call->hedged() && leg_index > 0;
        // Deadline monotonicity invariant (checked by chaos search):
        // a child span's deadline never exceeds its parent's.
        span.deadline = eff;
    }
    if (eff != kTickNever && now >= eff) {
        settle(call, leg_index, Payload{}, Status::Timeout);
        return;
    }

    // The response and the timer race to settle the leg; whichever
    // fires second finds it closed and does nothing.
    if (eff != kTickNever) {
        leg.timer = kernel_.sim().scheduleAt(eff, [this, call, leg_index] {
            if (!call->legs[leg_index].open)
                return;
            ++retry_stats_.clientTimeouts;
            settle(call, leg_index, Payload{}, Status::Timeout);
        });
    }
    RespondFn on_response = [this, call, leg_index](const Payload &resp,
                                                    Status status) {
        Call::Leg &settling = call->legs[leg_index];
        if (!settling.open)
            return;
        settling.timer.cancel();
        settle(call, leg_index, resp, status);
    };

    // Each leg re-routes: after a node loss the router may steer a
    // retry or a hedge to a surviving machine.
    unsigned dst = 0;
    if (router_)
        dst = router_->route(call->srcNode, *call->target);
    if (ref && call->srcNode != dst) {
        ref.trace->span(ref.span).fabricNs += static_cast<double>(
            network_.fabricLatencyNominal(call->payload.bytes,
                                          call->srcNode, dst));
    }
    // Anti-affinity across hedge legs: the first leg reports the
    // replica it lands on, and every hedge leg steers away from it —
    // duplicating onto the replica being hedged against would waste
    // the token and add load exactly where it hurts.
    if (leg_index == 0 && call->hedged())
        call->firstReplica = std::make_shared<int>(-1);
    network_.sendVia(call->payload.bytes, call->client,
                     call->target->name(), call->srcNode, dst,
                     [this, call, eff, ref, dst, leg_index,
                      on_response = std::move(on_response)]() mutable {
                         Envelope env;
                         env.op = call->op;
                         env.request = call->payload;
                         env.respond = std::move(on_response);
                         // Duplicated deliveries (PacketDup) re-run
                         // this: only the first copy may settle the
                         // leg.
                         on_response = nullptr;
                         env.client = call->client;
                         env.arrived = kernel_.sim().now();
                         env.deadline = eff;
                         env.criticality = call->criticality;
                         env.trace = ref;
                         env.srcNode = call->srcNode;
                         env.dstNode = dst;
                         if (leg_index == 0)
                             env.pickedReplica = call->firstReplica;
                         else if (call->firstReplica)
                             env.avoidReplica = *call->firstReplica;
                         call->target->submit(std::move(env));
                     });
}

void
Mesh::settle(const std::shared_ptr<Call> &call, unsigned leg_index,
             const Payload &response, Status status)
{
    Call::Leg &leg = call->legs[leg_index];
    leg.open = false;
    --call->legsOpen;
    if (call->link) {
        // The leg settled (response or client timeout): stamp the
        // client-side view.
        trace::Span &span = call->link.trace->span(leg.span);
        span.clientComplete = kernel_.sim().now();
        span.clientStatus = status;
    }
    if (call->hedged())
        finishLeg(call, leg_index, response, status);
    else
        finishAttempt(call, leg_index + 1, response, status);
}

void
Mesh::finishAttempt(const std::shared_ptr<Call> &call, unsigned attempt_no,
                    const Payload &response, Status status)
{
    if (status == Status::Rejected) {
        // Admission rejection is a deliberate shed by the overload
        // layer: retrying it would convert rejected work into
        // amplified offered load (a retry storm). Fail fast instead.
        ++retry_stats_.rejectedNoRetry;
    }
    if (status == Status::Ok || status == Status::Rejected ||
        attempt_no >= call->policy.maxAttempts ||
        !call->deadlineOpen(kernel_.sim().now())) {
        call->deliver(response, status);
        return;
    }
    if (!takeRetryToken()) {
        ++retry_stats_.budgetDenied;
        call->deliver(response, status);
        return;
    }
    ++retry_stats_.retries;
    double backoff =
        static_cast<double>(call->policy.backoffBase) *
        std::pow(call->policy.backoffMult,
                 static_cast<double>(attempt_no - 1));
    if (call->policy.jitterFrac > 0.0) {
        // Deterministic jitter from a dedicated stream: healthy runs
        // never draw from it, so adding it cannot perturb them.
        const double f = call->policy.jitterFrac;
        backoff *= (1.0 - f) + 2.0 * f * retry_rng_.uniform01();
    }
    const Tick delay =
        std::max<Tick>(1, static_cast<Tick>(std::llround(backoff)));
    call->pendingBackoff = delay;
    kernel_.sim().scheduleAfter(delay, [this, call] { launch(call); });
}

Tick
Mesh::hedgeDelayFor(const std::string &client,
                    const std::string &service,
                    const HedgePolicy &policy)
{
    if (policy.delayQuantile > 0.0) {
        // Quantile trigger: hedge after the edge's observed latency
        // quantile. Needs a warm histogram; until then fall back to
        // the fixed delay (0 = don't hedge yet).
        auto it = hedge_latency_.find(client + "|" + service);
        constexpr std::uint64_t kMinSamples = 32;
        if (it != hedge_latency_.end() &&
            it->second.count() >= kMinSamples) {
            const double q = it->second.quantile(policy.delayQuantile);
            return std::max<Tick>(1, static_cast<Tick>(std::llround(q)));
        }
    }
    return policy.delay;
}

void
Mesh::armHedgeTimer(const std::shared_ptr<Call> &call)
{
    Tick delay = call->hedgeDelay;
    if (call->policy.jitterFrac > 0.0) {
        // Deterministic jitter from the dedicated hedge stream: runs
        // without hedge-enabled edges never draw from it.
        const double f = call->policy.jitterFrac;
        const double jittered =
            static_cast<double>(delay) *
            ((1.0 - f) + 2.0 * f * hedge_rng_.uniform01());
        delay = std::max<Tick>(1,
                               static_cast<Tick>(std::llround(jittered)));
    }
    call->hedgeTimer = kernel_.sim().scheduleAfter(delay, [this, call] {
        if (call->done)
            return;
        bool launched = false;
        if (call->deadlineOpen(kernel_.sim().now()) &&
            call->legs.size() <= call->policy.hedge.maxHedges) {
            if (takeHedgeToken()) {
                ++hedge_stats_.launched;
                launch(call);
                launched = true;
                if (!call->done &&
                    call->legs.size() <= call->policy.hedge.maxHedges)
                    armHedgeTimer(call);
            } else {
                ++hedge_stats_.budgetDenied;
            }
        }
        // Every leg already failed and no new one is coming: the
        // deferred settle (finishLeg waits on this timer) fires here.
        if (!launched && !call->done && call->legsOpen == 0)
            call->deliver(call->lastResponse, call->lastStatus);
    });
}

void
Mesh::finishLeg(const std::shared_ptr<Call> &call, unsigned leg_index,
                const Payload &response, Status status)
{
    if (call->done)
        return;
    const Tick now = kernel_.sim().now();
    if (status == Status::Ok) {
        // First response wins: settle, cancel the losers' timers and
        // mark their spans cancelled so attribution never bills them.
        call->hedgeTimer.cancel();
        // Only the quantile trigger reads the edge's latency record.
        if (call->policy.hedge.delayQuantile > 0.0) {
            hedge_latency_[call->client + "|" + call->target->name()].add(
                static_cast<double>(now - call->legs[leg_index].issued));
        }
        if (leg_index > 0)
            ++hedge_stats_.wins;
        for (Call::Leg &other : call->legs) {
            if (!other.open)
                continue;
            other.open = false;
            --call->legsOpen;
            other.timer.cancel();
            ++hedge_stats_.cancelled;
            if (call->link) {
                trace::Span &span = call->link.trace->span(other.span);
                span.cancelled = true;
                span.clientComplete = now;
            }
        }
        call->deliver(response, status);
        return;
    }

    // Leg failed. If siblings are still racing (or a hedge launch is
    // pending) the call stays open; otherwise try to launch a fresh
    // leg immediately, and settle with the failure as a last resort.
    call->lastResponse = response;
    call->lastStatus = status;
    if (call->legsOpen > 0)
        return;
    if (call->deadlineOpen(now) &&
        call->legs.size() <= call->policy.hedge.maxHedges &&
        status != Status::Rejected) {
        // Rejected is a deliberate shed: duplicating it would amplify
        // offered load, exactly like retrying it (Status::Rejected).
        if (takeHedgeToken()) {
            call->hedgeTimer.cancel();
            ++hedge_stats_.launched;
            launch(call);
            return;
        }
        ++hedge_stats_.budgetDenied;
    }
    if (call->hedgeTimer.pending())
        return;
    call->deliver(call->lastResponse, call->lastStatus);
}

bool
Mesh::takeHedgeToken()
{
    if (hedge_tokens_ < 1.0)
        return false;
    hedge_tokens_ -= 1.0;
    return true;
}

void
Mesh::sendResponse(std::uint32_t bytes, const std::string &from,
                   const std::string &to, unsigned from_node,
                   unsigned to_node, trace::SpanRef trace,
                   sim::EventFn deliver)
{
    if (!router_) {
        // Single-machine: exactly the legacy response leg.
        network_.send(bytes, from, to, std::move(deliver));
        return;
    }
    if (trace && from_node != to_node) {
        trace.trace->span(trace.span).fabricNs += static_cast<double>(
            network_.fabricLatencyNominal(bytes, from_node, to_node));
    }
    network_.sendVia(bytes, from, to, from_node, to_node,
                     std::move(deliver));
}

bool
Mesh::takeRetryToken()
{
    if (retry_tokens_ < 1.0)
        return false;
    retry_tokens_ -= 1.0;
    return true;
}

double
Mesh::rpcInstructions(std::uint32_t bytes) const
{
    return rpc_params_.fixedInstructions +
           rpc_params_.perKibInstructions *
               (static_cast<double>(bytes) / 1024.0);
}

} // namespace microscale::svc
