#include "svc/service.hh"

#include <algorithm>

#include "base/logging.hh"
#include "svc/mesh.hh"
#include "topo/machine.hh"

namespace microscale::svc
{

namespace
{

/**
 * CCX a worker is effectively pinned to: the common CCX of its
 * affinity mask, or -1 when the mask spans CCXs (e.g. machine-wide
 * OS-default affinity).
 */
int
workerCcx(const topo::Machine &machine, const CpuMask &affinity)
{
    const CpuId first = affinity.first();
    if (first == kInvalidCpu)
        return -1;
    const CcxId ccx = machine.ccxOf(first);
    for (CpuId c = affinity.next(first); c != kInvalidCpu;
         c = affinity.next(c)) {
        if (machine.ccxOf(c) != ccx)
            return -1;
    }
    return static_cast<int>(ccx);
}

} // namespace

HandlerCtx::HandlerCtx(Service &service, Worker &worker, Envelope envelope)
    : service_(service), worker_(worker), envelope_(std::move(envelope))
{
}

Rng &
HandlerCtx::rng()
{
    return service_.rng_;
}

Tick
HandlerCtx::now() const
{
    return service_.mesh_.kernel().sim().now();
}

void
HandlerCtx::compute(double instructions, sim::EventFn next)
{
    computeProfile(service_.params_.profile, instructions,
                   std::move(next));
}

void
HandlerCtx::computeProfile(const cpu::WorkProfile &profile,
                           double instructions,
                           sim::EventFn next)
{
    if (finished_)
        MS_PANIC("compute after done() in ", service_.name());
    // Brownout faults scale the budget; at the default 1.0 the multiply
    // is an exact identity and the draw below is unchanged.
    double actual = instructions * service_.slowdown_;
    // Replicas added at runtime run colder for a while; replicas from
    // construction have coldUntil == 0 and skip this entirely.
    const Replica &rep = service_.replicas_[worker_.replica];
    // Gray failure: this replica alone is slow. Same exact-identity
    // guarantee at the default 1.0.
    actual *= rep.slowFactor;
    if (rep.coldUntil != 0)
        actual *= service_.coldComputeFactor(worker_.replica, now());
    if (service_.params_.computeCv > 0.0 && actual > 0.0)
        actual = rng().lognormal(actual, service_.params_.computeCv);
    if (actual <= 0.0) {
        // Degenerate budget: continue without occupying a CPU.
        service_.mesh_.kernel().sim().scheduleAfter(1, std::move(next));
        return;
    }
    worker_.thread->run(profile, actual, std::move(next));
}

void
HandlerCtx::call(const std::string &service, const std::string &op,
                 Payload request_payload,
                 std::function<void(const Payload &)> next)
{
    call(service, op, std::move(request_payload),
         [this, next = std::move(next)](const Payload &resp,
                                        Status status) {
             if (status != Status::Ok) {
                 fail(status);
                 return;
             }
             next(resp);
         });
}

void
HandlerCtx::call(const std::string &service, const std::string &op,
                 Payload request_payload,
                 std::function<void(const Payload &, Status)> next)
{
    if (finished_)
        MS_PANIC("call after done() in ", service_.name());
    Mesh &mesh = service_.mesh_;
    Worker &worker = worker_;

    // Serialize on this worker, ship the request, and when the response
    // arrives deserialize on this worker before continuing. A failure
    // outcome skips the deserialization charge (no body arrived).
    const double ser = mesh.rpcInstructions(request_payload.bytes);
    RespondFn after = [&mesh, &worker, next = std::move(next)](
                          const Payload &resp, Status status) {
        if (status != Status::Ok) {
            next(resp, status);
            return;
        }
        const double deser = mesh.rpcInstructions(resp.bytes);
        // Copy the payload so the continuation owns it.
        Payload resp_copy = resp;
        worker.thread->run(
            mesh.netstackProfile(), deser,
            [next, resp_copy] { next(resp_copy, Status::Ok); });
    };
    const std::string client = service_.name();
    const Tick deadline = envelope_.deadline;
    const Criticality tier = envelope_.criticality;
    // Downstream calls originate from this replica's machine.
    const int my_node =
        service_.replicas_[worker_.replica].clusterNode;
    const unsigned src_node =
        my_node >= 0 ? static_cast<unsigned>(my_node) : 0;
    // Each call() is its own fan-out group in the request's trace.
    trace::TraceLink tlink;
    if (envelope_.trace)
        tlink = {envelope_.trace.trace, envelope_.trace.span,
                 ++trace_groups_};
    worker_.thread->run(
        mesh.netstackProfile(), ser,
        [&mesh, client, service, op,
         request_payload = std::move(request_payload), deadline, tier,
         tlink, src_node, after = std::move(after)]() mutable {
            mesh.sendRpc(client, service, op, std::move(request_payload),
                         deadline, tier, std::move(after), tlink,
                         src_node);
        });
}

void
HandlerCtx::callAll(std::vector<CallSpec> calls,
                    std::function<void(const std::vector<Payload> &)> next)
{
    callAll(std::move(calls),
            [this, next = std::move(next)](
                const std::vector<Payload> &responses,
                const std::vector<Status> &statuses) {
                for (Status status : statuses) {
                    if (status != Status::Ok) {
                        fail(status);
                        return;
                    }
                }
                next(responses);
            });
}

void
HandlerCtx::callAll(std::vector<CallSpec> calls,
                    std::function<void(const std::vector<Payload> &,
                                       const std::vector<Status> &)>
                        next)
{
    if (finished_)
        MS_PANIC("callAll after done() in ", service_.name());
    Mesh &mesh = service_.mesh_;
    if (calls.empty()) {
        mesh.kernel().sim().scheduleAfter(
            1, [next = std::move(next)] { next({}, {}); });
        return;
    }

    struct FanOut
    {
        std::vector<Payload> responses;
        std::vector<Status> statuses;
        std::size_t pending = 0;
        std::function<void(const std::vector<Payload> &,
                           const std::vector<Status> &)>
            next;
        Worker *worker = nullptr;
        Mesh *mesh = nullptr;
    };
    auto state = std::make_shared<FanOut>();
    state->responses.resize(calls.size());
    state->statuses.assign(calls.size(), Status::Ok);
    state->pending = calls.size();
    state->next = std::move(next);
    state->worker = &worker_;
    state->mesh = &mesh;

    double ser = 0.0;
    for (const CallSpec &c : calls)
        ser += mesh.rpcInstructions(c.request.bytes);

    const std::string client = service_.name();
    const Tick deadline = envelope_.deadline;
    const Criticality tier = envelope_.criticality;
    const int my_node =
        service_.replicas_[worker_.replica].clusterNode;
    const unsigned src_node =
        my_node >= 0 ? static_cast<unsigned>(my_node) : 0;
    // All legs of one callAll share one fan-out group.
    trace::TraceLink tlink;
    if (envelope_.trace)
        tlink = {envelope_.trace.trace, envelope_.trace.span,
                 ++trace_groups_};
    worker_.thread->run(
        mesh.netstackProfile(), ser,
        [calls = std::move(calls), state, client, deadline, tier,
         tlink, src_node] {
            for (std::size_t i = 0; i < calls.size(); ++i) {
                const CallSpec &spec = calls[i];
                RespondFn on_response = [state, i](const Payload &resp,
                                                   Status status) {
                    state->responses[i] = resp;
                    state->statuses[i] = status;
                    if (--state->pending > 0)
                        return;
                    // All legs in: one deserialization batch on the
                    // (blocked) worker, then the continuation. Failed
                    // legs delivered no body, so they charge nothing.
                    double deser = 0.0;
                    for (std::size_t j = 0; j < state->responses.size();
                         ++j) {
                        if (state->statuses[j] == Status::Ok)
                            deser += state->mesh->rpcInstructions(
                                state->responses[j].bytes);
                    }
                    auto fire = [state] {
                        state->next(state->responses, state->statuses);
                    };
                    if (deser > 0.0) {
                        state->worker->thread->run(
                            state->mesh->netstackProfile(), deser,
                            std::move(fire));
                    } else {
                        state->mesh->kernel().sim().scheduleAfter(
                            1, std::move(fire));
                    }
                };
                state->mesh->sendRpc(client, spec.service, spec.op,
                                     spec.request, deadline, tier,
                                     std::move(on_response), tlink,
                                     src_node);
            }
        });
}

void
HandlerCtx::traceAnnotate(const std::string &note)
{
    if (!envelope_.trace)
        return;
    trace::Span &span =
        envelope_.trace.trace->span(envelope_.trace.span);
    if (!span.annotation.empty())
        span.annotation += ';';
    span.annotation += note;
}

void
HandlerCtx::fail(Status status)
{
    if (status == Status::Ok)
        MS_PANIC("fail(Ok) in ", service_.name());
    status_ = status;
    response_ = Payload{};
    response_.bytes = 64; // minimal error body
    done();
}

void
HandlerCtx::done()
{
    if (finished_)
        MS_PANIC("double done() in ", service_.name());
    finished_ = true;

    Mesh &mesh = service_.mesh_;
    const double ser = mesh.rpcInstructions(response_.bytes);
    worker_.thread->run(mesh.netstackProfile(), ser, [this, &mesh] {
        // Copy everything we need out of the context before it dies.
        Service &svc = service_;
        Worker &worker = worker_;
        RespondFn respond = std::move(envelope_.respond);
        const Payload resp = response_;
        const Status status = status_;
        const bool probe = envelope_.probe;
        const Tick arrived = envelope_.arrived;
        const std::string op = envelope_.op;
        const std::string client = envelope_.client;
        const unsigned src_node = envelope_.srcNode;
        const unsigned dst_node = envelope_.dstNode;
        const trace::SpanRef tref = envelope_.trace;

        const Tick now = mesh.kernel().sim().now();
        auto &stats = svc.op_stats_[op];
        const double service_time = static_cast<double>(now - arrived);
        const double queue_wait =
            static_cast<double>(dispatched_ - arrived);
        const double compute =
            worker.thread->ec().counters().busyNs - busy_at_dispatch_;
        stats.serviceTimeNs.add(service_time);
        stats.queueWaitNs.add(queue_wait);
        stats.computeNs.add(compute);
        stats.stallNs.add(
            std::max(0.0, service_time - queue_wait - compute));
        stats.statusCounts[statusIndex(status)]++;
        if (envelope_.trace) {
            trace::Span &span =
                envelope_.trace.trace->span(envelope_.trace.span);
            span.finish = now;
            span.status = status;
            span.computeNs = compute;
            span.degraded = resp.degraded;
        }
        svc.breakerRecord(worker.replica, status == Status::Ok, probe);
        svc.limiterObserve(worker.replica, service_time,
                           status == Status::Timeout);
        svc.outlierObserve(worker.replica, service_time,
                           status != Status::Ok);
        for (const auto &observer : svc.completion_observers_)
            observer(op, service_time, status);

        if (respond) {
            // Link-aware: the response travels the same faultable link
            // the request came in on — and, under a cluster router,
            // back across the fabric to the caller's machine. A
            // duplicated delivery (PacketDup) invokes the callback
            // twice; only the first may respond.
            mesh.sendResponse(
                resp.bytes, svc.name(), client, dst_node, src_node, tref,
                [respond = std::move(respond), resp, status]() mutable {
                    if (!respond)
                        return;
                    RespondFn once = std::move(respond);
                    respond = nullptr;
                    once(resp, status);
                });
        }
        // This destroys the HandlerCtx (and this lambda's captures were
        // already copied to locals); do not touch members afterwards.
        svc.workerDone(worker);
    });
}

Service::Service(Mesh &mesh, ServiceParams params)
    : mesh_(mesh),
      params_(std::move(params)),
      rng_(mesh.seed(), "svc." + params_.name)
{
    if (params_.name.empty())
        fatal("service with empty name");
    if (params_.replicas == 0 || params_.workersPerReplica == 0)
        fatal("service '", params_.name,
              "' needs at least one replica and worker");
    params_.profile.validate();

    replicas_.resize(params_.replicas);
    for (unsigned r = 0; r < params_.replicas; ++r)
        spawnWorkers(r);
}

void
Service::spawnWorkers(unsigned replica)
{
    os::Kernel &kernel = mesh_.kernel();
    const CpuMask everywhere = kernel.machine().allCpus();
    for (unsigned w = 0; w < params_.workersPerReplica; ++w) {
        Worker worker;
        worker.replica = replica;
        worker.thread = kernel.createThread(
            params_.name + ".r" + std::to_string(replica) + ".w" +
                std::to_string(w),
            everywhere, kInvalidNode);
        replicas_[replica].workerIndexes.push_back(workers_.size());
        workers_.push_back(std::move(worker));
    }
}

const char *
replicaStateName(ReplicaState state)
{
    switch (state) {
    case ReplicaState::Active:
        return "active";
    case ReplicaState::Warming:
        return "warming";
    case ReplicaState::Draining:
        return "draining";
    case ReplicaState::Retired:
        return "retired";
    }
    return "?";
}

unsigned
Service::activeReplicaCount() const
{
    unsigned n = 0;
    for (const Replica &r : replicas_) {
        if (r.state == ReplicaState::Active)
            ++n;
    }
    return n;
}

unsigned
Service::addReplica(const WarmupParams &warmup)
{
    if (warmup.coldFactor < 1.0)
        fatal("service '", params_.name, "': cold factor must be >= 1");
    const unsigned r = replicaCount();
    replicas_.emplace_back();
    replicas_.back().state = ReplicaState::Warming;
    spawnWorkers(r);
    ++replicas_added_;
    mesh_.kernel().sim().scheduleAfter(
        std::max<Tick>(1, warmup.registrationDelay), [this, r, warmup] {
            Replica &rep = replicas_[r];
            if (rep.state != ReplicaState::Warming)
                return; // drained before it ever registered
            const Tick now = mesh_.kernel().sim().now();
            rep.state = ReplicaState::Active;
            rep.warmedAt = now;
            rep.coldUntil =
                warmup.coldWindow > 0 ? now + warmup.coldWindow : 0;
            rep.coldFactor = warmup.coldFactor;
        });
    return r;
}

void
Service::drainReplica(unsigned replica)
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    Replica &rep = replicas_[replica];
    if (rep.state == ReplicaState::Retired)
        fatal("service '", params_.name, "': replica ", replica,
              " already retired");
    if (rep.state == ReplicaState::Draining)
        return;
    unsigned routable = 0;
    for (const Replica &other : replicas_) {
        if (other.state == ReplicaState::Active ||
            other.state == ReplicaState::Warming)
            ++routable;
    }
    if (routable <= 1)
        fatal("service '", params_.name,
              "': refusing to drain the last replica");
    rep.state = ReplicaState::Draining;
    maybeRetire(replica);
}

void
Service::maybeRetire(unsigned replica)
{
    Replica &rep = replicas_[replica];
    if (rep.state != ReplicaState::Draining || !rep.queue.empty())
        return;
    for (std::size_t idx : rep.workerIndexes) {
        if (workers_[idx].current)
            return;
    }
    rep.state = ReplicaState::Retired;
    ++replicas_retired_;
}

ReplicaState
Service::replicaState(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    return replicas_[replica].state;
}

double
Service::coldComputeFactor(unsigned replica, Tick now) const
{
    const Replica &rep = replicas_[replica];
    if (rep.coldUntil <= rep.warmedAt || now >= rep.coldUntil)
        return 1.0;
    if (now <= rep.warmedAt)
        return rep.coldFactor;
    const double f = static_cast<double>(now - rep.warmedAt) /
                     static_cast<double>(rep.coldUntil - rep.warmedAt);
    return rep.coldFactor + f * (1.0 - rep.coldFactor);
}

void
Service::addOp(const std::string &op,
               std::function<void(HandlerCtx &)> handler)
{
    if (!handler)
        MS_PANIC("empty handler for ", params_.name, ".", op);
    if (!ops_.emplace(op, std::move(handler)).second)
        MS_PANIC("duplicate op ", params_.name, ".", op);
}

void
Service::submit(Envelope envelope)
{
    if (envelope.arrived == 0)
        envelope.arrived = mesh_.kernel().sim().now();
    if (envelope.trace)
        envelope.trace.trace->span(envelope.trace.span).arrived =
            envelope.arrived;
    bool probe = false;
    const int picked = pickReplica(probe, mesh_.router() != nullptr,
                                   envelope.dstNode,
                                   envelope.avoidReplica);
    if (envelope.pickedReplica)
        *envelope.pickedReplica = picked;
    if (picked < 0) {
        ++resilience_counters_.noReplica;
        rejectEnvelope(envelope, Status::Unavailable);
        return;
    }
    const unsigned r = static_cast<unsigned>(picked);
    Replica &rep = replicas_[r];
    if (rep.down) {
        // Blind round-robin routed onto a crashed replica: connection
        // refused, no worker consumed.
        ++resilience_counters_.downRejects;
        rejectEnvelope(envelope, Status::Unavailable);
        return;
    }
    if (!admissionAdmits(rep, envelope)) {
        // Adaptive admission: the limiter (scaled by the request's
        // criticality tier) refused this request. A deliberate shed,
        // not replica ill-health: no breaker outcome is recorded, and
        // the mesh never retries a Rejected response.
        ++overload_counters_
              .admissionRejects[criticalityIndex(envelope.criticality)];
        rejectEnvelope(envelope, Status::Rejected);
        return;
    }
    const std::size_t cap = mesh_.resilience().maxQueueDepth;
    if (cap > 0 && rep.queue.size() >= cap && !hasIdleWorker(rep)) {
        // Bounded queue: shed at the door. The request never occupies
        // a worker and costs the replica nothing but this bookkeeping.
        ++resilience_counters_.shed;
        breakerRecord(r, false, probe);
        rejectEnvelope(envelope, Status::Overload);
        return;
    }
    envelope.probe = probe;
    rep.queue.push_back(std::move(envelope));
    rep.maxQueueDepth = std::max(rep.maxQueueDepth, rep.queue.size());
    pump(r);
}

int
Service::pickReplica(bool &probe, bool constrained, unsigned node,
                     int avoid)
{
    probe = false;
    const unsigned n = replicaCount();
    const ResilienceConfig &rc = mesh_.resilience();
    const int want = static_cast<int>(node);
    if (constrained && node >= rr_by_node_.size())
        rr_by_node_.resize(node + 1, 0);
    if (!rc.healthAwareBalancing && !rc.outlier.enabled) {
        // Blind round-robin over Active replicas, on the machine the
        // message was delivered to when node-constrained (each machine
        // rotates independently). With every replica Active (no
        // elasticity) the first iteration accepts, which is exactly
        // the legacy rr_next_++ % n sequence. Down replicas stay
        // eligible: connection-refused is modeled at submit. An
        // avoided replica (hedge anti-affinity) yields to any other
        // Active one but still serves as the last resort.
        unsigned &rr = constrained ? rr_by_node_[node] : rr_next_;
        int fallback = -1;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned r = rr++ % n;
            const Replica &rep = replicas_[r];
            if (rep.state != ReplicaState::Active ||
                (constrained && rep.clusterNode != want))
                continue;
            if (static_cast<int>(r) == avoid) {
                fallback = static_cast<int>(r);
                continue;
            }
            return static_cast<int>(r);
        }
        return fallback;
    }
    const Tick now = mesh_.kernel().sim().now();
    if (!rc.outlier.enabled) {
        unsigned &cursor = constrained ? rr_by_node_[node] : rr_next_;
        // Two passes so the anti-affinity hint never consumes a
        // half-open breaker probe it then declines: pass 0 skips the
        // avoided replica before touching breaker state, pass 1 (only
        // reached with a hint set) accepts it as the last resort.
        for (int pass = 0; pass < 2; ++pass) {
            for (unsigned i = 0; i < n; ++i) {
                const unsigned r = (cursor + i) % n;
                Replica &rep = replicas_[r];
                if (rep.down || rep.state != ReplicaState::Active)
                    continue;
                if (constrained && rep.clusterNode != want)
                    continue;
                if (pass == 0 && static_cast<int>(r) == avoid)
                    continue;
                if (rc.breaker.enabled &&
                    !breakerAdmits(rep.breaker, now, probe))
                    continue;
                cursor = r + 1;
                return static_cast<int>(r);
            }
            if (avoid < 0)
                break;
        }
        return -1;
    }

    // Outlier-ejection path: health-weighted smooth round-robin.
    // First return any ejected replica whose sit-out has elapsed to
    // the rotation (with fresh EWMAs: its past sins are forgiven).
    for (Replica &rep : replicas_) {
        if (rep.ejected && now >= rep.ejectedUntil) {
            rep.ejected = false;
            rep.ejectedUntil = 0;
            rep.outLatEwma = 0.0;
            rep.outErrEwma = 0.0;
            rep.outSamples = 0;
            ++resilience_counters_.outlierUnejections;
        }
    }
    // Score candidates without touching breaker state (the mutating
    // admit runs on the winner only), accumulate smooth-WRR credit,
    // and pick the highest-credit replica. Healthy replicas share
    // weight 1.0 and the pick degenerates to round-robin; a gray
    // replica's weight shrinks with its EWMA latency excess.
    int picked = -1;
    double total_weight = 0.0;
    double best_credit = 0.0;
    for (unsigned r = 0; r < n; ++r) {
        Replica &rep = replicas_[r];
        if (rep.down || rep.ejected ||
            rep.state != ReplicaState::Active)
            continue;
        if (constrained && rep.clusterNode != want)
            continue;
        if (static_cast<int>(r) == avoid)
            continue; // anti-affinity; last-resort check below
        if (rc.breaker.enabled && !breakerWouldAdmit(rep.breaker, now))
            continue;
        double weight = 1.0;
        if (rep.outSamples >= rc.outlier.minSamples &&
            rep.outLatEwma > 0.0 && out_svc_lat_ewma_ > 0.0) {
            weight = std::clamp(out_svc_lat_ewma_ / rep.outLatEwma,
                                0.1, 10.0);
        }
        rep.wrrCredit += weight;
        total_weight += weight;
        if (picked < 0 || rep.wrrCredit > best_credit) {
            picked = static_cast<int>(r);
            best_credit = rep.wrrCredit;
        }
    }
    if (picked < 0) {
        // Only the avoided replica is left (if even that): accept it
        // rather than fail the call. Smooth-WRR credit is skipped for
        // this rare path; the rotation re-balances on the next pick.
        if (avoid >= 0 && static_cast<unsigned>(avoid) < n) {
            Replica &rep = replicas_[static_cast<unsigned>(avoid)];
            if (!rep.down && !rep.ejected &&
                rep.state == ReplicaState::Active &&
                (!constrained || rep.clusterNode == want) &&
                (!rc.breaker.enabled ||
                 breakerAdmits(rep.breaker, now, probe)))
                return avoid;
        }
        return -1;
    }
    Replica &winner = replicas_[static_cast<unsigned>(picked)];
    winner.wrrCredit -= total_weight;
    if (rc.breaker.enabled &&
        !breakerAdmits(winner.breaker, now, probe)) {
        // Cannot happen: the preview above mirrors breakerAdmits
        // exactly and time has not advanced since.
        return -1;
    }
    return picked;
}

bool
Service::breakerAdmits(BreakerState &breaker, Tick now, bool &probe)
{
    switch (breaker.state) {
    case BreakerState::State::Closed:
        return true;
    case BreakerState::State::Open:
        if (now >= breaker.openedAt + mesh_.resilience().breaker.openFor) {
            breaker.state = BreakerState::State::HalfOpen;
            breaker.probeInFlight = true;
            probe = true;
            return true;
        }
        return false;
    case BreakerState::State::HalfOpen:
        if (!breaker.probeInFlight) {
            breaker.probeInFlight = true;
            probe = true;
            return true;
        }
        return false;
    }
    return false;
}

bool
Service::breakerWouldAdmit(const BreakerState &breaker, Tick now) const
{
    switch (breaker.state) {
    case BreakerState::State::Closed:
        return true;
    case BreakerState::State::Open:
        return now >=
               breaker.openedAt + mesh_.resilience().breaker.openFor;
    case BreakerState::State::HalfOpen:
        return !breaker.probeInFlight;
    }
    return false;
}

void
Service::outlierObserve(unsigned replica, double latency_ns, bool failed)
{
    const OutlierEjectionParams &oe = mesh_.resilience().outlier;
    if (!oe.enabled)
        return;
    Replica &rep = replicas_[replica];
    const double a = oe.ewmaAlpha;
    const double err = failed ? 1.0 : 0.0;
    if (rep.outSamples == 0) {
        rep.outLatEwma = latency_ns;
        rep.outErrEwma = err;
    } else {
        rep.outLatEwma = (1.0 - a) * rep.outLatEwma + a * latency_ns;
        rep.outErrEwma = (1.0 - a) * rep.outErrEwma + a * err;
    }
    ++rep.outSamples;
    out_svc_lat_ewma_ =
        out_svc_samples_ == 0
            ? latency_ns
            : (1.0 - a) * out_svc_lat_ewma_ + a * latency_ns;
    ++out_svc_samples_;

    if (rep.ejected || rep.down || rep.state != ReplicaState::Active)
        return;
    if (rep.outSamples < oe.minSamples ||
        out_svc_samples_ < oe.minSamples)
        return;
    const bool lat_outlier =
        out_svc_lat_ewma_ > 0.0 &&
        rep.outLatEwma > oe.latencyFactor * out_svc_lat_ewma_;
    const bool err_outlier = rep.outErrEwma >= oe.errorThreshold;
    if (!lat_outlier && !err_outlier)
        return;
    // Bounded ejection: never pull more than the configured fraction
    // of active replicas out of rotation at once. A mostly-gray fleet
    // is still a fleet; shrinking it to nothing would convert a
    // partial failure into a self-inflicted total one. Small fleets
    // need a floor: fraction * active truncates to 0 for e.g. two
    // replicas at 0.45, which would leave a fully-gray replica
    // permanently in rotation.
    unsigned cap = static_cast<unsigned>(
        oe.maxEjectFraction * static_cast<double>(activeReplicaCount()));
    if (cap == 0 && oe.maxEjectFraction > 0.0 && activeReplicaCount() >= 2)
        cap = 1;
    if (ejectedReplicaCount() >= cap) {
        ++resilience_counters_.outlierEjectionsDenied;
        return;
    }
    rep.ejected = true;
    rep.ejectedUntil = mesh_.kernel().sim().now() + oe.ejectFor;
    ++resilience_counters_.outlierEjections;
}

void
Service::breakerRecord(unsigned replica, bool ok, bool probe)
{
    const BreakerParams &bp = mesh_.resilience().breaker;
    if (!bp.enabled)
        return;
    BreakerState &b = replicas_[replica].breaker;
    const Tick now = mesh_.kernel().sim().now();
    switch (b.state) {
    case BreakerState::State::Open:
        // Outcome of a request dispatched before the breaker opened;
        // it carries no information about recovery.
        return;
    case BreakerState::State::HalfOpen:
        if (!probe)
            return; // stale pre-open outcome; only the probe decides
        b.probeInFlight = false;
        if (ok) {
            b = BreakerState{}; // close with a fresh window
        } else {
            b.state = BreakerState::State::Open;
            b.openedAt = now;
            ++resilience_counters_.breakerOpens;
        }
        return;
    case BreakerState::State::Closed:
        break;
    }
    if (ok)
        b.consecutiveFailures = 0;
    else
        ++b.consecutiveFailures;
    b.window.push_back(!ok);
    if (!ok)
        ++b.windowFailures;
    if (b.window.size() > bp.windowSize) {
        if (b.window.front())
            --b.windowFailures;
        b.window.pop_front();
    }
    const bool tripped =
        b.consecutiveFailures >= bp.consecutiveFailures ||
        (b.window.size() >= bp.windowMin &&
         static_cast<double>(b.windowFailures) /
                 static_cast<double>(b.window.size()) >=
             bp.errorRateThreshold);
    if (tripped) {
        b = BreakerState{};
        b.state = BreakerState::State::Open;
        b.openedAt = now;
        ++resilience_counters_.breakerOpens;
    }
}

void
Service::rejectEnvelope(Envelope &envelope, Status status)
{
    op_stats_[envelope.op].statusCounts[statusIndex(status)]++;
    if (envelope.trace) {
        // The request dies here without a worker: dispatched stays 0,
        // so the analyzer books its whole residency as shed time.
        trace::Span &span =
            envelope.trace.trace->span(envelope.trace.span);
        span.finish = mesh_.kernel().sim().now();
        span.status = status;
    }
    if (!envelope.respond)
        return;
    // Fail-fast: rejections are synchronous (no response network hop),
    // modeling a refused connection rather than a served error.
    Payload resp;
    resp.bytes = 64;
    RespondFn respond = std::move(envelope.respond);
    respond(resp, status);
}

bool
Service::hasIdleWorker(const Replica &replica) const
{
    for (std::size_t idx : replica.workerIndexes) {
        if (!workers_[idx].current)
            return true;
    }
    return false;
}

unsigned
Service::busyWorkerCount(const Replica &replica) const
{
    unsigned n = 0;
    for (std::size_t idx : replica.workerIndexes) {
        if (workers_[idx].current)
            ++n;
    }
    return n;
}

bool
Service::admissionAdmits(Replica &replica, const Envelope &envelope)
{
    const OverloadConfig &oc = mesh_.overload();
    if (oc.admission.kind == AdmissionKind::Off)
        return true;
    if (!replica.limiter) {
        replica.limiter = makeLimiter(oc.admission);
        replica.limiterTrace.observe(replica.limiter->limit());
    }
    // Each tier may fill only a fraction of the limit, so sheddable
    // work hits the wall first and headroom survives for critical
    // work as pressure builds.
    double frac = 1.0;
    if (oc.criticalityAware) {
        switch (envelope.criticality) {
        case Criticality::Critical:
            break;
        case Criticality::Normal:
            frac = oc.normalFrac;
            break;
        case Criticality::Sheddable:
            frac = oc.sheddableFrac;
            break;
        }
    }
    const double occupancy = static_cast<double>(
        replica.queue.size() + busyWorkerCount(replica));
    return occupancy < replica.limiter->limit() * frac;
}

void
Service::limiterObserve(unsigned replica, double latency_ns, bool dropped)
{
    Replica &rep = replicas_[replica];
    if (!rep.limiter)
        return;
    rep.limiter->onSample(latency_ns, dropped);
    rep.limiterTrace.observe(rep.limiter->limit());
}

LimiterTrace
Service::limiterSummary() const
{
    LimiterTrace total;
    for (const Replica &r : replicas_)
        total.merge(r.limiterTrace);
    return total;
}

double
Service::replicaLimit(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    const Replica &rep = replicas_[replica];
    return rep.limiter ? rep.limiter->limit() : 0.0;
}

void
Service::pump(unsigned replica)
{
    Replica &rep = replicas_[replica];
    const Tick now = mesh_.kernel().sim().now();
    const CoDelParams &cd = mesh_.overload().codel;
    while (!rep.queue.empty()) {
        // Adaptive LIFO: while CoDel is in its dropping state, serve
        // the newest request first so fresh work still meets its
        // deadline while the stale backlog drains through drops.
        const bool lifo =
            cd.enabled && cd.lifoUnderOverload && rep.codel.dropping;
        Envelope &next = lifo ? rep.queue.back() : rep.queue.front();
        if (next.deadline != kTickNever && now >= next.deadline) {
            // The caller has already given up on this request; don't
            // waste a worker on it.
            ++resilience_counters_.deadlineDrops;
            breakerRecord(replica, false, next.probe);
            limiterObserve(replica,
                           static_cast<double>(now - next.arrived), true);
            outlierObserve(replica,
                           static_cast<double>(now - next.arrived), true);
            rejectEnvelope(next, Status::Timeout);
            if (lifo)
                rep.queue.pop_back();
            else
                rep.queue.pop_front();
            continue;
        }
        Worker *idle = nullptr;
        for (std::size_t idx : rep.workerIndexes) {
            if (!workers_[idx].current) {
                idle = &workers_[idx];
                break;
            }
        }
        if (!idle)
            return;
        if (cd.enabled) {
            const Tick sojourn = now - next.arrived;
            if (codelShouldDrop(rep.codel, cd, sojourn, now)) {
                ++overload_counters_.codelDrops;
                limiterObserve(replica, static_cast<double>(sojourn),
                               true);
                rejectEnvelope(next, Status::Rejected);
                if (lifo)
                    rep.queue.pop_back();
                else
                    rep.queue.pop_front();
                continue;
            }
        }
        if (lifo)
            ++overload_counters_.lifoDequeues;
        Envelope env = std::move(next);
        if (lifo)
            rep.queue.pop_back();
        else
            rep.queue.pop_front();
        dispatch(*idle, std::move(env));
    }
}

void
Service::dispatch(Worker &worker, Envelope envelope)
{
    auto it = ops_.find(envelope.op);
    if (it == ops_.end())
        fatal("service '", params_.name, "' has no op '", envelope.op,
              "'");
    ++requests_;
    ++op_stats_[envelope.op].requests;
    const Tick now = mesh_.kernel().sim().now();
    queue_wait_ns_.add(static_cast<double>(now - envelope.arrived));

    const double deser = mesh_.rpcInstructions(envelope.request.bytes);
    worker.current.reset(
        new HandlerCtx(*this, worker, std::move(envelope)));
    HandlerCtx *ctx = worker.current.get();
    ctx->dispatched_ = now;
    ctx->busy_at_dispatch_ = worker.thread->ec().counters().busyNs;
    if (ctx->envelope_.trace) {
        trace::Span &span = ctx->envelope_.trace.trace->span(
            ctx->envelope_.trace.span);
        span.dispatched = now;
        span.replica = static_cast<int>(worker.replica);
        span.ccx = workerCcx(mesh_.kernel().machine(),
                             worker.thread->affinity());
        const NodeId home = worker.thread->ec().homeNode();
        span.node = home != kInvalidNode
                        ? static_cast<int>(home)
                        : (span.ccx >= 0
                               ? static_cast<int>(
                                     mesh_.kernel().machine().nodeOfCcx(
                                         static_cast<CcxId>(span.ccx)))
                               : -1);
        span.clusterNode = replicas_[worker.replica].clusterNode;
    }
    auto &handler = it->second;
    worker.thread->run(mesh_.netstackProfile(), deser,
                       [&handler, ctx] { handler(*ctx); });
}

void
Service::workerDone(Worker &worker)
{
    const unsigned r = worker.replica;
    worker.current.reset();
    pump(r);
    if (replicas_[r].state == ReplicaState::Draining)
        maybeRetire(r);
}

void
Service::setReplicaPlacement(unsigned replica, const CpuMask &affinity,
                             NodeId home_node)
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    for (std::size_t idx : replicas_[replica].workerIndexes) {
        Worker &w = workers_[idx];
        w.thread->ec().setHomeNode(home_node);
        w.thread->setAffinity(affinity);
    }
}

void
Service::setReplicaDown(unsigned replica, bool down)
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    Replica &rep = replicas_[replica];
    if (rep.down == down)
        return;
    rep.down = down;
    rep.breaker = BreakerState{};
    if (down) {
        // Crash: everything queued dies with the replica. Handlers
        // already on workers run to completion (no mid-handler abort
        // is modeled).
        std::deque<Envelope> doomed;
        doomed.swap(rep.queue);
        for (Envelope &e : doomed)
            rejectEnvelope(e, Status::Unavailable);
    }
    for (const auto &observer : availability_observers_)
        observer(replica, down);
}

bool
Service::replicaDown(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    return replicas_[replica].down;
}

void
Service::setSlowdown(double factor)
{
    if (factor <= 0.0)
        fatal("service '", params_.name, "': slowdown must be positive");
    slowdown_ = factor;
}

void
Service::setReplicaSlow(unsigned replica, double factor)
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    if (factor <= 0.0)
        fatal("service '", params_.name,
              "': replica slow factor must be positive");
    replicas_[replica].slowFactor = factor;
}

double
Service::replicaSlow(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    return replicas_[replica].slowFactor;
}

int
Service::replicaCcx(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    int ccx = -1;
    for (std::size_t idx : replicas_[replica].workerIndexes) {
        const int c = workerCcx(mesh_.kernel().machine(),
                                workers_[idx].thread->affinity());
        if (c < 0 || (ccx >= 0 && c != ccx))
            return -1;
        ccx = c;
    }
    return ccx;
}

void
Service::setReplicaClusterNode(unsigned replica, int node)
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    replicas_[replica].clusterNode = node;
}

int
Service::replicaClusterNode(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    return replicas_[replica].clusterNode;
}

unsigned
Service::activeReplicasOnNode(int node) const
{
    unsigned n = 0;
    for (const Replica &r : replicas_) {
        if (r.state == ReplicaState::Active && r.clusterNode == node)
            ++n;
    }
    return n;
}

bool
Service::replicaEjected(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    return replicas_[replica].ejected;
}

unsigned
Service::ejectedReplicaCount() const
{
    unsigned n = 0;
    for (const Replica &r : replicas_) {
        if (r.ejected)
            ++n;
    }
    return n;
}

const BreakerState &
Service::breakerState(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    return replicas_[replica].breaker;
}

cpu::PerfCounters
Service::aggregateCounters() const
{
    cpu::PerfCounters total;
    for (const Worker &w : workers_)
        total.merge(w.thread->ec().counters());
    return total;
}

unsigned
Service::busyWorkers() const
{
    unsigned n = 0;
    for (const Worker &w : workers_) {
        if (w.current)
            ++n;
    }
    return n;
}

std::uint64_t
Service::queuedRequests() const
{
    std::uint64_t n = 0;
    for (const Replica &r : replicas_)
        n += r.queue.size();
    return n;
}

std::uint64_t
Service::queuedRequests(unsigned replica) const
{
    if (replica >= replicaCount())
        fatal("service '", params_.name, "': replica ", replica,
              " out of range");
    return replicas_[replica].queue.size();
}

void
Service::resetStats()
{
    op_stats_.clear();
    queue_wait_ns_.reset();
    requests_ = 0;
    for (Replica &r : replicas_)
        r.maxQueueDepth = r.queue.size();
}

} // namespace microscale::svc
