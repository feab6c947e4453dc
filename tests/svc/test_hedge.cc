/**
 * @file
 * Tests for hedged requests: first-response-wins with loser
 * cancellation, replica anti-affinity of hedge legs, the token-bucket
 * hedge budget, failure unwinding (every leg fails = one respond),
 * same-seed reproducibility of the dedicated hedge RNG stream, and a
 * golden of the quantile trigger re-arming for a second hedge.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "integration/golden.hh"
#include "net/network.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"
#include "topo/presets.hh"

namespace microscale::svc
{
namespace
{

class HedgeTest : public ::testing::Test
{
  protected:
    HedgeTest()
        : machine_(topo::small8()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, os::SchedParams{}, 1),
          network_(sim_, quietNet(), 1),
          mesh_(kernel_, network_, RpcCostParams{}, 1)
    {
        kernel_.start();
        profile_.name = "hedge-test";
        profile_.ipcBase = 1.0;
        profile_.l3Apki = 1.0;
        profile_.wssBytes = 1024 * 1024;
    }

    static net::NetParams
    quietNet()
    {
        net::NetParams p;
        p.jitterCv = 0.0;
        return p;
    }

    Service *
    makeService(const std::string &name, unsigned replicas,
                unsigned workers = 2)
    {
        ServiceParams p;
        p.name = name;
        p.profile = profile_;
        p.replicas = replicas;
        p.workersPerReplica = workers;
        p.computeCv = 0.0;
        return mesh_.createService(p);
    }

    /** Hedge-enabled external->`server` policy, no jitter. */
    static ResilienceConfig
    hedgePolicy(const std::string &server, Tick delay,
                double budget = 1.0)
    {
        ResilienceConfig rc;
        rc.hedgeBudgetRatio = budget;
        EdgePolicy pol;
        pol.jitterFrac = 0.0;
        pol.hedge.delay = delay;
        pol.hedge.maxHedges = 1;
        rc.edges.push_back({kExternalClient, server, pol});
        return rc;
    }

    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    os::Kernel kernel_;
    net::Network network_;
    Mesh mesh_;
    cpu::WorkProfile profile_;
};

TEST_F(HedgeTest, HedgeWinsAgainstSlowReplicaAndCancelsLoser)
{
    mesh_.setResilience(hedgePolicy("fan", 500 * kMicrosecond));
    Service *s = makeService("fan", 2);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(1e6, [&ctx] { ctx.done(); });
    });
    // Replica 0 (the round-robin's first pick) is a deep straggler:
    // the first leg lands on it and the hedge must win the race.
    s->setReplicaSlow(0, 40.0);

    int responses = 0;
    Status status = Status::Unavailable;
    Tick done_at = 0;
    mesh_.callExternalS("fan", "get", Payload{},
                        [&](const Payload &, Status st) {
                            ++responses;
                            status = st;
                            done_at = sim_.now();
                        });
    sim_.run();

    EXPECT_EQ(responses, 1);
    EXPECT_EQ(status, Status::Ok);
    const HedgeStats &hs = mesh_.hedgeStats();
    EXPECT_EQ(hs.firstAttempts, 1u);
    EXPECT_EQ(hs.launched, 1u);
    EXPECT_EQ(hs.wins, 1u);
    EXPECT_EQ(hs.cancelled, 1u);
    EXPECT_EQ(hs.budgetDenied, 0u);
    // The straggler leg alone would take ~40 compute times; the
    // hedged call must settle well before that.
    EXPECT_LT(done_at, 10 * kMillisecond);
}

TEST_F(HedgeTest, HedgeLegAvoidsTheFirstLegsReplica)
{
    // Delay long enough that the healthy call below finishes first
    // and never hedges; only the straggler-stuck call launches one.
    mesh_.setResilience(hedgePolicy("fan", 2 * kMillisecond));
    Service *s = makeService("fan", 2);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(1e6, [&ctx] { ctx.done(); });
    });
    s->setReplicaSlow(0, 40.0);

    // A second, plain call right after the first advances the
    // round-robin cursor so that — without anti-affinity — the hedge
    // leg would rotate straight back onto the slow replica 0 and the
    // hedge could never win.
    int responses = 0;
    Tick hedged_done = 0;
    mesh_.callExternalS("fan", "get", Payload{},
                        [&](const Payload &, Status) {
                            ++responses;
                            hedged_done = sim_.now();
                        });
    mesh_.callExternalS("fan", "get", Payload{},
                        [&](const Payload &, Status) { ++responses; });
    sim_.run();

    EXPECT_EQ(responses, 2);
    const HedgeStats &hs = mesh_.hedgeStats();
    EXPECT_EQ(hs.firstAttempts, 2u);
    EXPECT_EQ(hs.wins, 1u);
    EXPECT_LT(hedged_done, 10 * kMillisecond);
}

TEST_F(HedgeTest, BudgetDeniesHedgesWhenExhausted)
{
    // 0.2 tokens accrue per first attempt: a single call never
    // reaches the 1-token price of a hedge leg.
    mesh_.setResilience(
        hedgePolicy("fan", 200 * kMicrosecond, /*budget=*/0.2));
    Service *s = makeService("fan", 2);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(1e6, [&ctx] { ctx.done(); });
    });
    s->setReplicaSlow(0, 40.0);

    int responses = 0;
    Status status = Status::Unavailable;
    mesh_.callExternalS("fan", "get", Payload{},
                        [&](const Payload &, Status st) {
                            ++responses;
                            status = st;
                        });
    sim_.run();

    // The straggler leg still answers; the call is slow but Ok.
    EXPECT_EQ(responses, 1);
    EXPECT_EQ(status, Status::Ok);
    const HedgeStats &hs = mesh_.hedgeStats();
    EXPECT_EQ(hs.launched, 0u);
    EXPECT_GE(hs.budgetDenied, 1u);
    EXPECT_EQ(hs.wins, 0u);
    EXPECT_EQ(hs.cancelled, 0u);
}

TEST_F(HedgeTest, AllLegsFailRespondsExactlyOnce)
{
    mesh_.setResilience(hedgePolicy("fan", 200 * kMicrosecond));
    Service *s = makeService("fan", 2);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(0.2e6, [&ctx] { ctx.fail(Status::Unavailable); });
    });

    int responses = 0;
    Status status = Status::Ok;
    mesh_.callExternalS("fan", "get", Payload{},
                        [&](const Payload &, Status st) {
                            ++responses;
                            status = st;
                        });
    sim_.run();

    EXPECT_EQ(responses, 1);
    EXPECT_EQ(status, Status::Unavailable);
    EXPECT_EQ(mesh_.hedgeStats().wins, 0u);
    EXPECT_EQ(mesh_.hedgeStats().cancelled, 0u);
}

TEST_F(HedgeTest, QuantileTriggerRearmsForASecondHedge)
{
    // A fixed delay of 0 hedges nothing until the edge holds enough
    // Ok samples, so every hedge here comes from the quantile branch.
    // Two of three replicas straggle: a first hedge that lands on the
    // second straggler leaves the call open, and the re-armed timer
    // launches the second hedge. The golden pins every call's settle
    // and every span the mesh stamps.
    ResilienceConfig rc = hedgePolicy("fan", /*delay=*/0);
    EdgePolicy &pol = rc.edges.front().policy;
    pol.timeout = 50 * kMillisecond;
    pol.jitterFrac = 0.2;
    pol.hedge.delayQuantile = 0.5;
    pol.hedge.maxHedges = 2;
    mesh_.setResilience(rc);
    trace::TraceParams tp;
    tp.enabled = true;
    tp.sampleRate = 1.0;
    mesh_.setTrace(tp);
    Service *s = makeService("fan", 3, /*workers=*/8);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(1e6, [&ctx] { ctx.done(); });
    });
    s->setReplicaSlow(0, 12.0);
    s->setReplicaSlow(1, 12.0);

    constexpr unsigned kCalls = 120;
    std::vector<unsigned> responses(kCalls, 0);
    std::vector<Tick> settled_at(kCalls, 0);
    std::vector<Status> statuses(kCalls, Status::Unavailable);
    for (unsigned i = 0; i < kCalls; ++i) {
        sim_.scheduleAt(i * 500 * kMicrosecond, [&, i] {
            mesh_.callExternalS("fan", "get", Payload{},
                                [&, i](const Payload &, Status st) {
                                    ++responses[i];
                                    settled_at[i] = sim_.now();
                                    statuses[i] = st;
                                });
        });
    }
    sim_.run();

    std::ostringstream out;
    for (unsigned i = 0; i < kCalls; ++i) {
        EXPECT_EQ(responses[i], 1u) << "call " << i;
        out << "call " << i << " settled " << settled_at[i] << " "
            << statusName(statuses[i]) << "\n";
    }
    unsigned second_hedges = 0;
    for (const auto &t : mesh_.traceStore()->traces()) {
        for (const trace::Span &sp : t->spans()) {
            second_hedges += sp.attempt == 3 ? 1 : 0;
            out << "trace " << t->id() << " span " << sp.id << " attempt "
                << sp.attempt << " retryOf " << sp.retryOf << " hedge "
                << sp.hedge << " cancelled " << sp.cancelled << " issue "
                << sp.clientIssue << " complete " << sp.clientComplete
                << " client " << statusName(sp.clientStatus)
                << " deadline " << sp.deadline << " arrived " << sp.arrived
                << " dispatched " << sp.dispatched << " finish "
                << sp.finish << " server " << statusName(sp.status)
                << " replica " << sp.replica << "\n";
        }
    }
    const HedgeStats &hs = mesh_.hedgeStats();
    out << "hedges firstAttempts " << hs.firstAttempts << " launched "
        << hs.launched << " wins " << hs.wins << " cancelled "
        << hs.cancelled << " budgetDenied " << hs.budgetDenied
        << " clientTimeouts " << mesh_.retryStats().clientTimeouts << "\n";

    EXPECT_EQ(hs.firstAttempts, kCalls);
    EXPECT_GT(hs.launched, 0u);
    EXPECT_GT(hs.wins, 0u);
    EXPECT_GT(second_hedges, 0u);
    microscale::testing::checkGolden("hedge_quantile.txt", out.str());
}

/** One hedged world, returning the settle tick of a single call whose
 * hedge timer draws jitter from the "mesh.hedge" stream. */
Tick
jitteredHedgeRun(std::uint64_t seed)
{
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    os::Kernel kernel(sim, machine, engine, os::SchedParams{}, seed);
    net::NetParams np;
    np.jitterCv = 0.0;
    net::Network network(sim, np, seed);
    Mesh mesh(kernel, network, RpcCostParams{}, seed);
    kernel.start();

    ResilienceConfig rc;
    rc.hedgeBudgetRatio = 1.0;
    EdgePolicy pol;
    pol.jitterFrac = 0.5; // exercises the hedge RNG stream
    pol.hedge.delay = 500 * kMicrosecond;
    rc.edges.push_back({kExternalClient, "fan", pol});
    mesh.setResilience(rc);

    cpu::WorkProfile profile;
    profile.name = "hedge-test";
    profile.ipcBase = 1.0;
    profile.l3Apki = 1.0;
    profile.wssBytes = 1024 * 1024;
    ServiceParams p;
    p.name = "fan";
    p.profile = profile;
    p.replicas = 2;
    p.workersPerReplica = 2;
    p.computeCv = 0.0;
    Service *s = mesh.createService(p);
    s->addOp("get", [](HandlerCtx &ctx) {
        ctx.compute(1e6, [&ctx] { ctx.done(); });
    });
    s->setReplicaSlow(0, 40.0);

    Tick done_at = 0;
    mesh.callExternalS("fan", "get", Payload{},
                       [&](const Payload &, Status) {
                           done_at = sim.now();
                       });
    sim.run();
    return done_at;
}

TEST(HedgeRng, SameSeedReproducesTheRace)
{
    const Tick a = jitteredHedgeRun(7);
    const Tick b = jitteredHedgeRun(7);
    EXPECT_GT(a, 0u);
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace microscale::svc
