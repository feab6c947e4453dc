#include "replays.hh"

#include <functional>
#include <memory>

#include "base/random.hh"
#include "cpu/exec.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"
#include "topo/machine.hh"
#include "topo/presets.hh"

namespace perfbench
{

namespace ms = microscale;
using ms::CpuId;
using ms::kMicrosecond;
using ms::kMillisecond;

namespace
{

/**
 * Time `body` (which returns its operation count) and record a span.
 */
ReplayResult
timed(const std::string &metric, const std::string &layer,
      std::uint64_t expected, SpanRecorder &spans, std::uint32_t parent,
      const std::function<std::uint64_t()> &body)
{
    const Clock::time_point start = Clock::now();
    const std::uint64_t ops = body();
    const Clock::time_point end = Clock::now();
    ReplayResult r;
    r.metric = metric;
    r.ops = ops;
    r.expectedOps = expected;
    r.nsPerOp = ops > 0 ? secondsBetween(start, end) * 1e9 /
                              static_cast<double>(ops)
                        : 0.0;
    spans.add(metric, layer, start, end, parent,
              {{"ops", static_cast<double>(ops)},
               {"ns_per_op", r.nsPerOp}});
    return r;
}

/**
 * Event-core churn: 1024 streams each fire, cancel the timeout they
 * armed last time, arm a new one and schedule their next firing, the
 * armed-then-cancelled pattern of RPC timeouts and hedge timers.
 */
class Churn
{
  public:
    static constexpr unsigned kStreams = 1024;
    static constexpr std::uint64_t kFires = 400000;

    explicit Churn(std::uint64_t seed) : rng_(seed), timeouts_(kStreams) {}

    std::uint64_t run()
    {
        for (unsigned s = 0; s < kStreams; ++s)
            sim_.scheduleAfter(1 + s, [this, s] { fire(s); });
        sim_.run();
        return fired_;
    }

  private:
    void fire(unsigned s)
    {
        ++fired_;
        timeouts_[s].cancel();
        if (fired_ == kFires) {
            sim_.stop();
            return;
        }
        timeouts_[s] = sim_.scheduleAfter(kMillisecond, [] {});
        sim_.scheduleAfter(rng_.uniformInt(1, 100 * kMicrosecond),
                           [this, s] { fire(s); });
    }

    ms::sim::Simulation sim_;
    ms::Rng rng_;
    std::vector<ms::sim::EventHandle> timeouts_;
    std::uint64_t fired_ = 0;
};

/** Distinct work profiles, so co-runners share an L3 unevenly. */
std::vector<ms::cpu::WorkProfile>
profiles(std::uint64_t seed, unsigned n)
{
    ms::Rng rng(seed);
    std::vector<ms::cpu::WorkProfile> out(n);
    for (unsigned i = 0; i < n; ++i) {
        out[i].name = "replay-" + std::to_string(i);
        out[i].l3Apki = rng.uniformReal(2.0, 12.0);
        out[i].wssBytes = rng.uniformReal(1.0, 16.0) * 1024 * 1024;
    }
    return out;
}

/**
 * One CCX of rome128 with `corunners` contexts already running; the
 * measured context starts and stops on the remaining CPU, so every
 * pair reprices the whole CCX twice.
 */
class CcxBench
{
  public:
    CcxBench(std::uint64_t seed, unsigned corunners)
        : machine_(ms::topo::rome128()), engine_(sim_, machine_),
          profiles_(profiles(seed, 8))
    {
        for (CpuId c : machine_.cpusOfCcx(0))
            cpus_.push_back(c);
        for (unsigned i = 0; i <= corunners; ++i) {
            ctxs_.push_back(std::make_unique<ms::cpu::ExecContext>(
                "replay-" + std::to_string(i), ms::kInvalidNode));
            engine_.setWork(*ctxs_.back(), profiles_[i], 1e15, [] {});
            if (i > 0)
                engine_.startRun(*ctxs_.back(), cpus_[i]);
        }
    }

    std::uint64_t startStop(std::uint64_t pairs)
    {
        ms::cpu::ExecContext &ctx = *ctxs_.front();
        for (std::uint64_t i = 0; i < pairs; ++i) {
            engine_.startRun(ctx, cpus_.front());
            engine_.stopRun(ctx);
        }
        return pairs;
    }

    std::uint64_t rateOn(std::uint64_t calls, double &sink)
    {
        const ms::cpu::ExecContext &ctx = *ctxs_.front();
        for (std::uint64_t i = 0; i < calls; ++i)
            sink += engine_.rateOn(ctx, cpus_[i % cpus_.size()]);
        return calls;
    }

  private:
    ms::sim::Simulation sim_;
    ms::topo::Machine machine_;
    ms::cpu::ExecEngine engine_;
    std::vector<ms::cpu::WorkProfile> profiles_;
    std::vector<CpuId> cpus_;
    std::vector<std::unique_ptr<ms::cpu::ExecContext>> ctxs_;
};

/**
 * Scheduler wake path on rome128: twice as many threads as CPUs, each
 * submitting short work items back to back, so every item goes through
 * Thread::run -> wake placement -> dispatch -> completion.
 */
class WakeBench
{
  public:
    static constexpr unsigned kItemsPerThread = 60;
    static constexpr double kInstructions = 20000.0;

    WakeBench(std::uint64_t seed, bool ccx_pinned)
        : machine_(ms::topo::rome128()), engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, ms::os::SchedParams{}, seed),
          profile_(profiles(seed, 1).front())
    {
        const unsigned n = 2 * machine_.numCpus();
        for (unsigned i = 0; i < n; ++i) {
            const ms::CpuMask mask =
                ccx_pinned ? machine_.cpusOfCcx(i % machine_.numCcxs())
                           : machine_.allCpus();
            threads_.push_back(
                kernel_.createThread("replay-" + std::to_string(i), mask));
        }
        left_.assign(n, kItemsPerThread);
    }

    std::uint64_t expected() const
    {
        return std::uint64_t(threads_.size()) * kItemsPerThread;
    }

    std::uint64_t run()
    {
        kernel_.start();
        for (unsigned i = 0; i < threads_.size(); ++i)
            submit(i);
        sim_.run();
        kernel_.stop();
        return done_;
    }

  private:
    void submit(unsigned i)
    {
        threads_[i]->run(profile_, kInstructions, [this, i] {
            ++done_;
            if (--left_[i] > 0)
                submit(i);
        });
    }

    ms::sim::Simulation sim_;
    ms::topo::Machine machine_;
    ms::cpu::ExecEngine engine_;
    ms::os::Kernel kernel_;
    ms::cpu::WorkProfile profile_;
    std::vector<ms::os::Thread *> threads_;
    std::vector<unsigned> left_;
    std::uint64_t done_ = 0;
};

/** Loopback sends of 512-byte messages, delivered in batches. */
std::uint64_t
netSends(std::uint64_t seed, std::uint64_t messages)
{
    ms::sim::Simulation sim;
    ms::net::Network network(sim, ms::net::NetParams{}, seed);
    std::uint64_t delivered = 0;
    for (std::uint64_t sent = 0; sent < messages;) {
        for (unsigned j = 0; j < 1000 && sent < messages; ++j, ++sent)
            network.send(512, [&delivered] { ++delivered; });
        sim.run();
    }
    return delivered;
}

/**
 * External calls to a stub service on small8 whose only op answers at
 * once: mesh transport, netstack work on the worker threads and the
 * response hop, 64 calls in flight at a time.
 */
std::uint64_t
rpcRoundTrips(std::uint64_t seed, std::uint64_t calls)
{
    ms::sim::Simulation sim;
    ms::topo::Machine machine(ms::topo::small8());
    ms::cpu::ExecEngine engine(sim, machine);
    ms::os::Kernel kernel(sim, machine, engine, ms::os::SchedParams{},
                          seed);
    ms::net::Network network(sim, ms::net::NetParams{}, seed);
    ms::svc::Mesh mesh(kernel, network, ms::svc::RpcCostParams{}, seed);
    ms::svc::ServiceParams p;
    p.name = "stub";
    p.profile = profiles(seed, 1).front();
    p.workersPerReplica = 8;
    p.computeCv = 0.0;
    mesh.createService(p)->addOp(
        "ping", [](ms::svc::HandlerCtx &ctx) { ctx.done(); });
    kernel.start();

    std::uint64_t responses = 0;
    for (std::uint64_t sent = 0; sent < calls;) {
        for (unsigned j = 0; j < 64 && sent < calls; ++j, ++sent) {
            mesh.callExternal("stub", "ping", ms::svc::Payload{},
                              [&responses](const ms::svc::Payload &) {
                                  ++responses;
                              });
        }
        sim.run();
    }
    kernel.stop();
    return responses;
}

} // namespace

std::vector<ReplayResult>
runReplays(std::uint64_t seed, SpanRecorder &spans, std::uint32_t parent)
{
    std::vector<ReplayResult> out;

    out.push_back(timed("sim.churn_ns_per_event", "sim", Churn::kFires,
                        spans, parent,
                        [seed] { return Churn(seed).run(); }));

    {
        constexpr std::uint64_t kCalls = 400000;
        out.push_back(timed(
            "topo.cpus_of_ccx_ns", "topo", kCalls, spans, parent, [] {
                const ms::topo::Machine machine(ms::topo::rome128());
                std::uint64_t cpus = 0;
                for (std::uint64_t i = 0; i < kCalls; ++i)
                    cpus += machine.cpusOfCcx(i % machine.numCcxs()).count();
                // Every rome128 CCX has 8 logical CPUs.
                return cpus / 8;
            }));
    }

    for (const unsigned occupancy : {1u, 4u, 8u}) {
        constexpr std::uint64_t kPairs = 20000;
        CcxBench bench(seed, occupancy - 1);
        out.push_back(timed(
            "cpu.start_stop_ns.occ" + std::to_string(occupancy), "cpu",
            kPairs, spans, parent,
            [&bench] { return bench.startStop(kPairs); }));
    }

    {
        constexpr std::uint64_t kCalls = 400000;
        CcxBench bench(seed, 3);
        double sink = 0.0;
        out.push_back(timed("cpu.rate_on_ns", "cpu", kCalls, spans, parent,
                            [&] {
                                const std::uint64_t n =
                                    bench.rateOn(kCalls, sink);
                                // A positive rate sum proves the calls ran.
                                return sink > 0.0 ? n : 0;
                            }));
    }

    for (const bool pinned : {false, true}) {
        WakeBench bench(seed, pinned);
        out.push_back(timed(pinned ? "os.wake_ns.ccx" : "os.wake_ns.unpinned",
                            "os", bench.expected(), spans, parent,
                            [&bench] { return bench.run(); }));
    }

    {
        constexpr std::uint64_t kMessages = 200000;
        out.push_back(timed("net.send_ns", "net", kMessages, spans, parent,
                            [seed] { return netSends(seed, kMessages); }));
    }

    {
        constexpr std::uint64_t kCalls = 20000;
        out.push_back(timed("svc.rpc_roundtrip_ns", "svc", kCalls, spans,
                            parent,
                            [seed] { return rpcRoundTrips(seed, kCalls); }));
    }
    return out;
}

} // namespace perfbench
