#include "os/kernel.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace microscale::os
{

Kernel::Kernel(sim::Simulation &sim, const topo::Machine &machine,
               cpu::ExecEngine &engine, SchedParams params,
               std::uint64_t seed)
    : sim_(sim),
      machine_(machine),
      engine_(engine),
      params_(params),
      rng_(seed, "os.kernel"),
      rq_(machine.numCpus()),
      on_cpu_(machine.numCpus(), nullptr),
      reserved_(machine.numCpus(), nullptr),
      last_ran_(machine.numCpus(), nullptr),
      min_vruntime_(machine.numCpus(), 0.0),
      load_(machine.numCpus(), 0),
      levels_{machine.allCpus()},
      pullable_(machine.numCpus())
{
}

Kernel::~Kernel()
{
    stop();
}

Thread *
Kernel::createThread(std::string name, CpuMask affinity, NodeId home_node)
{
    const CpuMask allowed = allowedCpus(name, affinity);
    if (home_node != kInvalidNode && home_node >= machine_.numNodes())
        fatal("thread '", name, "': home node ", home_node, " not present");
    threads_.push_back(std::make_unique<Thread>(
        *this, next_tid_++, std::move(name), allowed, home_node));
    return threads_.back().get();
}

CpuMask
Kernel::allowedCpus(const std::string &name, const CpuMask &affinity) const
{
    const CpuMask allowed = affinity & machine_.allCpus();
    if (allowed.empty()) {
        fatal("thread '", name,
              "': affinity has no CPUs on this machine (",
              affinity.toString(), ")");
    }
    return allowed;
}

void
Kernel::start()
{
    if (started_)
        return;
    started_ = true;
    tick_.start(sim_, params_.timeslice, [this] { preemptTick(); });
    if (params_.loadBalance) {
        balancer_.start(sim_, params_.balancePeriod,
                        [this] { balancePass(); });
    }
}

void
Kernel::stop()
{
    tick_.stop();
    balancer_.stop();
    started_ = false;
}

void
Kernel::addLoad(CpuId cpu, int delta)
{
    levels_[load_[cpu]].clear(cpu);
    load_[cpu] += delta;
    if (load_[cpu] == levels_.size())
        levels_.emplace_back();
    levels_[load_[cpu]].set(cpu);
}

CpuId
Kernel::findIdleIn(const CpuMask &mask) const
{
    const CpuMask &idle = levels_[0];
    const CpuMask candidates = mask & idle;
    // First pass: a fully idle core (both hardware threads free), which
    // is what select_idle_core prefers.
    for (CpuId c : candidates) {
        const CpuId sib = machine_.siblingOf(c);
        if (sib == kInvalidCpu || idle.test(sib))
            return c;
    }
    // Second pass: any idle hardware thread.
    return candidates.first();
}

CpuId
Kernel::leastLoadedIn(const CpuMask &mask, CpuId hint) const
{
    // The lowest level that meets the mask holds the least-loaded CPUs.
    for (const CpuMask &level : levels_) {
        if (!level.intersects(mask))
            continue;
        const CpuMask best = level & mask;
        if (mask.test(hint)) {
            const CpuId after = best.next(hint);
            if (after != kInvalidCpu)
                return after;
        }
        return best.first();
    }
    return kInvalidCpu;
}

CpuId
Kernel::selectCpu(Thread *t)
{
    const CpuMask &allowed = t->affinity();
    const CpuId prev = t->ec().lastCpu();

    if (prev == kInvalidCpu) {
        // Fork/exec balancing: place on the least-loaded allowed CPU.
        return leastLoadedIn(allowed, kInvalidCpu);
    }

    // 1. The previous CPU, if it is idle and still allowed.
    if (allowed.test(prev) && cpuIdle(prev))
        return prev;

    // 2. An idle CPU in the previous LLC (CCX) domain.
    const CpuMask ccx_mask =
        machine_.cpusOfCcx(machine_.ccxOf(prev)) & allowed;
    CpuId c = findIdleIn(ccx_mask);
    if (c != kInvalidCpu)
        return c;

    // 3. An idle CPU in the previous NUMA node.
    const CpuMask node_mask =
        machine_.cpusOfNode(machine_.nodeOf(prev)) & allowed;
    c = findIdleIn(node_mask);
    if (c != kInvalidCpu)
        return c;

    // 4. Any idle allowed CPU.
    c = findIdleIn(allowed);
    if (c != kInvalidCpu)
        return c;

    // 5. Nothing idle: least-loaded queue, preferring the local CCX.
    if (!ccx_mask.empty()) {
        const CpuId local = leastLoadedIn(ccx_mask, prev);
        // Only stay local when the local queues are not clearly worse
        // than the best queue anywhere.
        const CpuId global = leastLoadedIn(allowed, prev);
        if (local != kInvalidCpu &&
            cpuLoad(local) <= cpuLoad(global) + 1) {
            return local;
        }
        return global;
    }
    return leastLoadedIn(allowed, prev);
}

void
Kernel::enqueue(Thread *t, CpuId cpu)
{
    if (t->state_ == Thread::State::Runnable)
        MS_PANIC("enqueue of already-queued thread ", t->name());
    t->state_ = Thread::State::Runnable;
    t->rq_cpu_ = cpu;
    t->vruntime_ = std::max(t->vruntime_, min_vruntime_[cpu]);
    rq_[cpu].push_back(t);
    queued_.set(cpu);
    pullable_[cpu] |= t->affinity();
    addLoad(cpu, +1);
}

Thread *
Kernel::dequeueNext(CpuId cpu)
{
    auto &q = rq_[cpu];
    if (q.empty())
        return nullptr;
    auto best = q.begin();
    for (auto it = std::next(q.begin()); it != q.end(); ++it) {
        if ((*it)->vruntime_ < (*best)->vruntime_)
            best = it;
    }
    Thread *t = *best;
    q.erase(best);
    reindexQueue(cpu);
    addLoad(cpu, -1);
    t->rq_cpu_ = kInvalidCpu;
    return t;
}

void
Kernel::removeFromQueue(Thread *t)
{
    if (t->rq_cpu_ == kInvalidCpu)
        MS_PANIC("removeFromQueue of unqueued thread ", t->name());
    auto &q = rq_[t->rq_cpu_];
    auto it = std::find(q.begin(), q.end(), t);
    if (it == q.end())
        MS_PANIC("thread ", t->name(), " missing from its run queue");
    q.erase(it);
    reindexQueue(t->rq_cpu_);
    addLoad(t->rq_cpu_, -1);
    t->rq_cpu_ = kInvalidCpu;
}

void
Kernel::reindexQueue(CpuId cpu)
{
    CpuMask &pullable = pullable_[cpu];
    pullable = CpuMask();
    for (const Thread *q : rq_[cpu])
        pullable |= q->affinity();
    if (rq_[cpu].empty())
        queued_.clear(cpu);
}

void
Kernel::wake(Thread *t)
{
    ++stats_.wakeups;
    ++t->ec().counters().wakeups;
    const CpuId cpu = selectCpu(t);
    enqueue(t, cpu);
    schedule(cpu);
}

void
Kernel::onAffinityChanged(Thread *t)
{
    switch (t->state_) {
      case Thread::State::Blocked:
        break;
      case Thread::State::Runnable:
        if (t->affinity().test(t->rq_cpu_)) {
            reindexQueue(t->rq_cpu_);
        } else {
            removeFromQueue(t);
            t->state_ = Thread::State::Blocked;
            const CpuId cpu = selectCpu(t);
            enqueue(t, cpu);
            schedule(cpu);
        }
        break;
      case Thread::State::Running: {
        const CpuId cpu = t->ec().cpu();
        // Mid-switch threads get re-checked at the next tick.
        if (cpu != kInvalidCpu && !t->affinity().test(cpu))
            preempt(cpu);
        break;
      }
    }
}

void
Kernel::schedule(CpuId cpu)
{
    if (engine_.runningOn(cpu) || reserved_[cpu])
        return;
    Thread *t = dequeueNext(cpu);
    if (!t) {
        if (params_.newIdleSteal && started_)
            pull(cpu, stats_.newIdlePulls);
        return;
    }
    dispatch(t, cpu);
}

void
Kernel::dispatch(Thread *t, CpuId cpu)
{
    if (t->state_ != Thread::State::Runnable &&
        t->state_ != Thread::State::Blocked) {
        MS_PANIC("dispatch of thread ", t->name(), " in bad state");
    }
    t->state_ = Thread::State::Running;
    min_vruntime_[cpu] = std::max(min_vruntime_[cpu], t->vruntime_);
    // Busy from here (running, or reserved through the switch) until
    // the thread completes or is preempted.
    addLoad(cpu, +1);

    const CpuId prev = t->ec().lastCpu();
    if (prev != kInvalidCpu && prev != cpu) {
        ++stats_.migrations;
        if (machine_.ccxOf(prev) != machine_.ccxOf(cpu))
            ++stats_.ccxMigrations;
    }

    const bool needs_switch =
        last_ran_[cpu] != t && params_.switchCost > 0;
    if (!needs_switch) {
        on_cpu_[cpu] = t;
        last_ran_[cpu] = t;
        t->last_dispatch_ = sim_.now();
        engine_.startRun(t->ec(), cpu);
        return;
    }

    reserved_[cpu] = t;
    engine_.chargeOverhead(cpu, params_.switchCost, &t->ec().counters());
    sim_.scheduleAfter(params_.switchCost, [this, t, cpu] {
        if (reserved_[cpu] != t)
            MS_PANIC("switch reservation lost on cpu ", cpu);
        reserved_[cpu] = nullptr;
        on_cpu_[cpu] = t;
        last_ran_[cpu] = t;
        t->last_dispatch_ = sim_.now();
        engine_.startRun(t->ec(), cpu);
    });
}

void
Kernel::onWorkComplete(Thread *t)
{
    // The engine has already detached the context from its CPU.
    const CpuId cpu = t->ec().lastCpu();
    t->vruntime_ +=
        static_cast<double>(sim_.now() - t->last_dispatch_);
    t->state_ = Thread::State::Blocked;
    on_cpu_[cpu] = nullptr;
    addLoad(cpu, -1);
    ++stats_.contextSwitches;
    ++t->ec().counters().contextSwitches;

    // Let the freed CPU pick its next thread before the user callback
    // possibly re-submits this one.
    schedule(cpu);

    sim::EventFn cb = std::move(t->user_cb_);
    if (cb)
        cb();
}

void
Kernel::preempt(CpuId cpu)
{
    Thread *t = on_cpu_[cpu];
    if (!t || !t->ec().running())
        return;
    engine_.stopRun(t->ec());
    t->vruntime_ +=
        static_cast<double>(sim_.now() - t->last_dispatch_);
    on_cpu_[cpu] = nullptr;
    addLoad(cpu, -1);
    t->state_ = Thread::State::Blocked; // transiently, for enqueue
    ++stats_.preemptions;
    ++stats_.contextSwitches;
    ++t->ec().counters().contextSwitches;

    if (t->affinity().test(cpu)) {
        enqueue(t, cpu);
    } else {
        const CpuId target = selectCpu(t);
        enqueue(t, target);
        schedule(target);
    }
    schedule(cpu);
}

void
Kernel::preemptTick()
{
    const Tick now = sim_.now();
    for (CpuId cpu = 0; cpu < machine_.numCpus(); ++cpu) {
        Thread *t = on_cpu_[cpu];
        if (!t || reserved_[cpu])
            continue;
        if (!t->ec().running())
            continue;
        // Preempt a thread off a CPU its affinity no longer allows.
        if (!t->affinity().test(cpu)) {
            preempt(cpu);
            continue;
        }
        if (now - t->last_dispatch_ < params_.timeslice)
            continue;
        if (rq_[cpu].empty())
            continue;
        const double run_vr =
            t->vruntime_ +
            static_cast<double>(now - t->last_dispatch_);
        double min_queued = std::numeric_limits<double>::max();
        for (Thread *q : rq_[cpu])
            min_queued = std::min(min_queued, q->vruntime_);
        if (min_queued < run_vr)
            preempt(cpu);
    }
}

Thread *
Kernel::stealFrom(const CpuMask &domain, CpuId for_cpu)
{
    // Only queued CPUs can be deeper than zero (for_cpu's own queue is
    // empty), and pullable_ says whether a queue holds a thread allowed
    // on for_cpu without walking it; the scan order and the strict >
    // are those of a full scan.
    CpuId busiest = kInvalidCpu;
    std::size_t depth = 0;
    for (CpuId c : domain & queued_) {
        if (rq_[c].size() > depth && pullable_[c].test(for_cpu)) {
            depth = rq_[c].size();
            busiest = c;
        }
    }
    if (busiest == kInvalidCpu)
        return nullptr;
    for (Thread *q : rq_[busiest]) {
        if (q->affinity().test(for_cpu)) {
            removeFromQueue(q);
            q->state_ = Thread::State::Blocked; // transiently
            return q;
        }
    }
    MS_PANIC("pullable mask of cpu ", busiest, " is out of date");
}

void
Kernel::pull(CpuId cpu, std::uint64_t &pulls)
{
    if (queued_.empty())
        return;
    // Widening search: CCX, then node, then the whole machine.
    const CpuMask *domains[] = {
        &machine_.cpusOfCcx(machine_.ccxOf(cpu)),
        &machine_.cpusOfNode(machine_.nodeOf(cpu)),
        &machine_.allCpus(),
    };
    for (const CpuMask *d : domains) {
        if (Thread *t = stealFrom(*d, cpu)) {
            ++pulls;
            enqueue(t, cpu);
            schedule(cpu);
            return;
        }
    }
}

void
Kernel::balancePass()
{
    // Visit the idle CPUs in ascending order. levels_ is re-read at
    // every step because a pull can grow it.
    for (CpuId cpu = levels_[0].first();
         cpu != kInvalidCpu && !queued_.empty();
         cpu = levels_[0].next(cpu)) {
        pull(cpu, stats_.balancePulls);
    }
}

} // namespace microscale::os
