/**
 * @file
 * Tests for the execution engine: rates, SMT, cache sharing, NUMA,
 * cold-cache migration, frequency scaling, banking and accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "cpu/exec.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

namespace microscale::cpu
{
namespace
{

class ExecTest : public ::testing::Test
{
  protected:
    ExecTest()
        : machine_(topo::rome128()), engine_(sim_, machine_)
    {
        small_.name = "small-wss";
        small_.ipcBase = 1.0;
        small_.l3Apki = 10.0;
        small_.wssBytes = 4.0 * 1024 * 1024;
        small_.branchMpki = 0.0;
        small_.icacheMpki = 0.0;
        small_.smtYield = 0.6;

        big_ = small_;
        big_.name = "big-wss";
        big_.wssBytes = 64.0 * 1024 * 1024;

        other_ = small_;
        other_.name = "other-small";
    }

    ExecContext *
    makeCtx(const std::string &name, NodeId home = kInvalidNode)
    {
        ctxs_.push_back(std::make_unique<ExecContext>(name, home));
        return ctxs_.back().get();
    }

    /** Attach `instr` of `profile`, flagging completion. */
    void
    give(ExecContext *ctx, const WorkProfile &profile, double instr,
         bool *done = nullptr)
    {
        engine_.setWork(*ctx, profile, instr, [done] {
            if (done)
                *done = true;
        });
    }

    sim::Simulation sim_;
    topo::Machine machine_;
    ExecEngine engine_;
    WorkProfile small_, big_, other_;
    std::vector<std::unique_ptr<ExecContext>> ctxs_;
};

TEST_F(ExecTest, SoloRunsAtComputedRate)
{
    auto *ctx = makeCtx("t0");
    bool done = false;
    give(ctx, small_, 1e6, &done);
    const double rate = engine_.rateOn(*ctx, 0);
    EXPECT_GT(rate, 0.0);
    engine_.startRun(*ctx, 0);
    sim_.run();
    EXPECT_TRUE(done);
    const double expected_ns = 1e6 / rate;
    EXPECT_NEAR(static_cast<double>(sim_.now()), expected_ns,
                expected_ns * 0.01);
}

TEST_F(ExecTest, CountersMatchBudget)
{
    auto *ctx = makeCtx("t0");
    give(ctx, small_, 2e6);
    engine_.startRun(*ctx, 0);
    sim_.run();
    const PerfCounters &c = ctx->counters();
    EXPECT_NEAR(c.instructions, 2e6, 1e3);
    EXPECT_GT(c.cycles, 0.0);
    EXPECT_GT(c.busyNs, 0.0);
    // Fully resident working set: misses at the floor ratio.
    EXPECT_NEAR(c.l3MissRatio(), engine_.params().missFloor, 1e-6);
    EXPECT_NEAR(c.l3Accesses, 2e6 * small_.l3Apki / 1000.0, 10.0);
    EXPECT_DOUBLE_EQ(c.branchMisses, 0.0);
    EXPECT_NEAR(c.kernelInstructions, 2e6 * small_.kernelShare, 1e3);
}

TEST_F(ExecTest, IpcReflectsCacheStalls)
{
    auto *fits = makeCtx("fits");
    give(fits, small_, 1e6);
    engine_.startRun(*fits, 0);
    sim_.run();

    auto *spills = makeCtx("spills");
    give(spills, big_, 1e6);
    engine_.startRun(*spills, 8); // different CCX, clean state
    sim_.run();

    EXPECT_GT(fits->counters().ipc(), spills->counters().ipc());
    EXPECT_GT(spills->counters().l3MissRatio(), 0.5);
}

TEST_F(ExecTest, SmtSiblingReducesRate)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, small_, 1e9);
    engine_.startRun(*a, 0);
    const double solo = engine_.rateOn(*a, 0);
    engine_.startRun(*b, 64); // SMT sibling of cpu 0
    const double shared = engine_.rateOn(*a, 0);
    EXPECT_NEAR(shared / solo, small_.smtYield, 1e-9);
}

TEST_F(ExecTest, HeterogeneousSmtPairIsSlower)
{
    auto *a = makeCtx("a");
    auto *same = makeCtx("same");
    auto *diff = makeCtx("diff");
    give(a, small_, 1e9);
    give(same, small_, 1e9);
    give(diff, other_, 1e9);

    engine_.startRun(*a, 0);
    engine_.startRun(*same, 64);
    const double homo = engine_.rateOn(*a, 0);
    engine_.stopRun(*same);
    engine_.startRun(*diff, 64);
    const double hetero = engine_.rateOn(*a, 0);
    EXPECT_NEAR(hetero / homo, engine_.params().smtHeteroFactor, 1e-9);
}

TEST_F(ExecTest, SameProfileSharesFootprint)
{
    // Two threads of the same service on one CCX: no extra pressure.
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, small_, 1e9);
    engine_.startRun(*a, 0);
    const double solo = engine_.rateOn(*a, 0);
    engine_.startRun(*b, 1); // same CCX, different core
    const double together = engine_.rateOn(*a, 0);
    EXPECT_DOUBLE_EQ(together, solo);
}

TEST_F(ExecTest, DistinctProfilesContendForL3)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, big_, 1e9);
    engine_.startRun(*a, 0);
    const double solo = engine_.rateOn(*a, 0);
    engine_.startRun(*b, 1); // same CCX
    const double contended = engine_.rateOn(*a, 0);
    EXPECT_LT(contended, solo);
}

TEST_F(ExecTest, RemoteMemoryIsSlower)
{
    auto *local = makeCtx("local", machine_.nodeOf(0));
    auto *remote = makeCtx("remote", 3); // cpu 0 is on node 0
    give(local, big_, 1e9);
    give(remote, big_, 1e9);
    const double local_rate = engine_.rateOn(*local, 0);
    const double remote_rate = engine_.rateOn(*remote, 0);
    EXPECT_LT(remote_rate, local_rate);
}

TEST_F(ExecTest, FirstTouchSetsHomeNode)
{
    auto *ctx = makeCtx("t", kInvalidNode);
    give(ctx, small_, 1e6);
    engine_.startRun(*ctx, 20); // node 1 on rome128 (ccx 5)
    EXPECT_EQ(ctx->homeNode(), machine_.nodeOf(20));
    sim_.run();
}

TEST_F(ExecTest, CrossCcxMigrationGoesCold)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e9);
    engine_.startRun(*ctx, 0);
    sim_.runUntil(10 * kMicrosecond);
    engine_.stopRun(*ctx);
    engine_.startRun(*ctx, 8); // different CCX
    EXPECT_EQ(ctx->counters().ccxMigrations, 1u);
    const double cold_rate = engine_.rateOn(*ctx, 8);
    // Run long enough to warm up, then compare.
    sim_.runUntil(sim_.now() + 5 * kMillisecond);
    const double warm_rate = engine_.rateOn(*ctx, 8);
    EXPECT_GT(warm_rate, cold_rate * 1.5);
    EXPECT_GT(ctx->counters().coldNs, 0.0);
}

TEST_F(ExecTest, SameCcxMoveStaysWarm)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e9);
    engine_.startRun(*ctx, 0);
    sim_.runUntil(10 * kMicrosecond);
    engine_.stopRun(*ctx);
    engine_.startRun(*ctx, 1); // same CCX
    EXPECT_EQ(ctx->counters().ccxMigrations, 0u);
    EXPECT_EQ(ctx->counters().migrations, 1u);
    EXPECT_DOUBLE_EQ(ctx->counters().coldNs, 0.0);
}

TEST_F(ExecTest, WarmPeerSuppressesColdRefill)
{
    auto *peer = makeCtx("peer");
    give(peer, small_, 1e9);
    engine_.startRun(*peer, 8); // ccx 2's first cpu... cpu 8 -> ccx 2
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e9);
    engine_.startRun(*ctx, 0);
    sim_.runUntil(10 * kMicrosecond);
    engine_.stopRun(*ctx);
    engine_.startRun(*ctx, 9); // peer's CCX, same profile running
    EXPECT_EQ(ctx->counters().ccxMigrations, 1u);
    const double rate = engine_.rateOn(*ctx, 9);
    // No cold surcharge: rate matches the warm shared-footprint rate.
    const double peer_rate = engine_.rateOn(*peer, 8);
    EXPECT_NEAR(rate, peer_rate, peer_rate * 1e-9);
}

TEST_F(ExecTest, FrequencyDropsWithActiveCores)
{
    const double idle_freq = engine_.socketFreqGhz(0);
    EXPECT_DOUBLE_EQ(idle_freq, machine_.params().freq.boostGhz);

    std::vector<ExecContext *> all;
    for (unsigned i = 0; i < 64; ++i) {
        auto *c = makeCtx(std::string("t").append(std::to_string(i)));
        give(c, small_, 1e12);
        engine_.startRun(*c, i);
        all.push_back(c);
    }
    EXPECT_EQ(engine_.activeCores(0), 64u);
    EXPECT_DOUBLE_EQ(engine_.socketFreqGhz(0),
                     machine_.params().freq.allCoreGhz);
    for (auto *c : all)
        engine_.stopRun(*c);
    EXPECT_DOUBLE_EQ(engine_.socketFreqGhz(0),
                     machine_.params().freq.boostGhz);
}

TEST_F(ExecTest, CyclesFollowTheFrequencyRunAt)
{
    // The subject runs 100 us at boost, 200 us after eight more busy
    // cores on other CCXs push the socket out of the boost bucket, and
    // 50 us after one of them stops. Each bucket crossing banks the
    // interval that just ended: it ran at the frequency before the
    // crossing.
    auto *subject = makeCtx("subject");
    give(subject, small_, 1e12);
    engine_.startRun(*subject, 0);
    const double boost = engine_.socketFreqGhz(0);
    sim_.runUntil(100 * kMicrosecond);
    std::vector<ExecContext *> others;
    for (CpuId c = 4; c < 12; ++c) {
        others.push_back(makeCtx(std::string("o").append(std::to_string(c))));
        give(others.back(), small_, 1e12);
        engine_.startRun(*others.back(), c);
    }
    const double lowered = engine_.socketFreqGhz(0);
    ASSERT_LT(lowered, boost);
    sim_.runUntil(300 * kMicrosecond);
    engine_.stopRun(*others.back());
    ASSERT_EQ(engine_.socketFreqGhz(0), boost);
    sim_.runUntil(350 * kMicrosecond);
    engine_.bankAll();
    const double us = static_cast<double>(kMicrosecond);
    EXPECT_DOUBLE_EQ(subject->counters().cycles,
                     100 * us * boost + 200 * us * lowered +
                         50 * us * boost);
    EXPECT_DOUBLE_EQ(subject->counters().busyNs, 350 * us);
}

TEST_F(ExecTest, PreemptionBanksProgress)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 10e6);
    engine_.startRun(*ctx, 0);
    const double rate = engine_.rateOn(*ctx, 0);
    sim_.runUntil(100 * kMicrosecond);
    engine_.stopRun(*ctx);
    const double expected_retired = rate * 100 * kMicrosecond;
    EXPECT_NEAR(ctx->counters().instructions, expected_retired,
                expected_retired * 0.01);
    EXPECT_NEAR(ctx->remainingInstructions(),
                10e6 - expected_retired, expected_retired * 0.01);
    EXPECT_FALSE(ctx->running());
    EXPECT_TRUE(ctx->hasWork());

    // Resume and finish.
    bool done = false;
    engine_.startRun(*ctx, 0);
    sim_.run();
    EXPECT_NEAR(ctx->counters().instructions, 10e6, 1e4);
    (void)done;
}

TEST_F(ExecTest, ChargeOverheadCountsKernelTime)
{
    PerfCounters c;
    engine_.chargeOverhead(0, 2 * kMicrosecond, &c);
    EXPECT_DOUBLE_EQ(c.busyNs, 2000.0);
    EXPECT_GT(c.kernelInstructions, 0.0);
    EXPECT_DOUBLE_EQ(c.kernelInstructions, c.instructions);
    EXPECT_DOUBLE_EQ(engine_.cpuBusyNs(0), 2000.0);
}

TEST_F(ExecTest, CompletionDetachesAndCallsBack)
{
    auto *ctx = makeCtx("t");
    bool done = false;
    give(ctx, small_, 1e5, &done);
    engine_.startRun(*ctx, 3);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(ctx->running());
    EXPECT_FALSE(ctx->hasWork());
    EXPECT_EQ(ctx->lastCpu(), 3u);
    EXPECT_EQ(engine_.runningOn(3), nullptr);
}

TEST_F(ExecTest, SmtBusyTimeTracked)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e9);
    give(b, small_, 1e7);
    engine_.startRun(*a, 0);
    engine_.startRun(*b, 64);
    sim_.runUntil(kMillisecond);
    engine_.bankAll();
    EXPECT_GT(a->counters().smtBusyNs, 0.0);
    EXPECT_LE(a->counters().smtBusyNs, a->counters().busyNs);
}

TEST_F(ExecTest, DeathOnDoubleStart)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e6);
    engine_.startRun(*ctx, 0);
    EXPECT_DEATH(engine_.startRun(*ctx, 1), "already-running");
}

TEST_F(ExecTest, DeathOnBusyCpu)
{
    auto *a = makeCtx("a");
    auto *b = makeCtx("b");
    give(a, small_, 1e6);
    give(b, small_, 1e6);
    engine_.startRun(*a, 0);
    EXPECT_DEATH(engine_.startRun(*b, 0), "busy cpu");
}

TEST_F(ExecTest, DeathOnSetWorkTwice)
{
    auto *ctx = makeCtx("t");
    give(ctx, small_, 1e6);
    EXPECT_DEATH(give(ctx, small_, 1e6), "pending work");
}

/**
 * Property: instructions are conserved across arbitrary preempt/move
 * schedules - every context ends with exactly its submitted budget.
 */
class ExecConservation : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ExecConservation, InstructionsConserved)
{
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    Rng rng(GetParam());

    WorkProfile p;
    p.name = "prop";
    p.ipcBase = 1.2;
    p.l3Apki = 6.0;
    p.wssBytes = 6.0 * 1024 * 1024;

    constexpr unsigned kThreads = 6;
    const double budget = 5e6;
    std::vector<std::unique_ptr<ExecContext>> ctxs;
    unsigned completed = 0;
    for (unsigned i = 0; i < kThreads; ++i) {
        ctxs.push_back(std::make_unique<ExecContext>(
            "p" + std::to_string(i), kInvalidNode));
        engine.setWork(*ctxs[i], p, budget, [&completed] { ++completed; });
    }

    // Random schedule churn: start/stop contexts on random free CPUs.
    for (int step = 0; step < 400 && completed < kThreads; ++step) {
        sim.runUntil(sim.now() + rng.uniformInt(1, 50) * kMicrosecond);
        for (auto &ctx : ctxs) {
            if (!ctx->hasWork())
                continue;
            if (ctx->running()) {
                if (rng.chance(0.4))
                    engine.stopRun(*ctx);
            } else if (rng.chance(0.6)) {
                // Find a free cpu.
                for (CpuId c = 0; c < machine.numCpus(); ++c) {
                    if (!engine.runningOn(c)) {
                        engine.startRun(*ctx, c);
                        break;
                    }
                }
            }
        }
    }
    // Drain: run everything to completion.
    for (auto &ctx : ctxs) {
        if (ctx->hasWork() && !ctx->running()) {
            for (CpuId c = 0; c < machine.numCpus(); ++c) {
                if (!engine.runningOn(c)) {
                    engine.startRun(*ctx, c);
                    break;
                }
            }
        }
    }
    sim.run();
    EXPECT_EQ(completed, kThreads);
    for (auto &ctx : ctxs) {
        EXPECT_NEAR(ctx->counters().instructions, budget, budget * 0.001)
            << ctx->name();
        EXPECT_FALSE(ctx->running());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecConservation,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/**
 * Property: adding load never speeds anyone up - starting another
 * context on the same core/CCX/socket can only lower (or keep) an
 * existing context's retire rate.
 */
class ExecMonotonicity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ExecMonotonicity, NeighborsNeverHelp)
{
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    Rng rng(GetParam());

    // A palette of distinct profiles.
    std::vector<WorkProfile> profiles(4);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        profiles[i].name = "mono" + std::to_string(i);
        profiles[i].ipcBase = rng.uniformReal(0.6, 2.0);
        profiles[i].l3Apki = rng.uniformReal(1.0, 15.0);
        profiles[i].wssBytes = rng.uniformReal(1.0, 30.0) * 1024 * 1024;
        profiles[i].smtYield = rng.uniformReal(0.55, 0.8);
    }

    ExecContext subject("subject", 0);
    engine.setWork(subject, profiles[0], 1e12, [] {});
    engine.startRun(subject, 0);

    std::vector<std::unique_ptr<ExecContext>> others;
    double prev_rate = engine.rateOn(subject, 0);
    for (int step = 0; step < 20; ++step) {
        // Start a random other context on a random free CPU.
        const CpuId cpu =
            static_cast<CpuId>(rng.uniformInt(1, machine.numCpus() - 1));
        if (engine.runningOn(cpu))
            continue;
        others.push_back(std::make_unique<ExecContext>(
            "n" + std::to_string(step), kInvalidNode));
        engine.setWork(*others.back(),
                       profiles[rng.index(profiles.size())], 1e12,
                       [] {});
        engine.startRun(*others.back(), cpu);
        const double rate = engine.rateOn(subject, 0);
        EXPECT_LE(rate, prev_rate * (1.0 + 1e-9))
            << "adding load on cpu " << cpu << " raised the rate";
        prev_rate = rate;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecMonotonicity,
                         ::testing::Values(10, 20, 30, 40));

/** A profile whose rate depends on its L3 share. */
WorkProfile
cacheBound(const std::string &name, double wss_mib)
{
    WorkProfile p;
    p.name = name;
    p.ipcBase = 1.0;
    p.l3Apki = 10.0;
    p.wssBytes = wss_mib * 1024 * 1024;
    p.branchMpki = 0.0;
    p.icacheMpki = 0.0;
    p.smtYield = 0.6;
    return p;
}

TEST(ExecSharing, ManyDistinctCoRunnersCountOnce)
{
    // One 16-core SMT2 CCX holds a bystander's 16 distinct
    // co-runners. A second thread of the 16th co-runner's profile (on
    // CPU 16, the sibling of CPU 0, so neither the active-core count
    // nor the bystander's sibling changes) adds no new working set:
    // the bystander's rate must not move.
    topo::MachineParams mp = topo::small8();
    mp.name = "wide-ccx";
    mp.nodesPerSocket = 1;
    mp.ccxsPerNode = 1;
    mp.coresPerCcx = 16;
    mp.threadsPerCore = 2;
    mp.cache.l3BytesPerCcx = 32ull * 1024 * 1024;
    sim::Simulation sim;
    topo::Machine machine(mp);
    ExecEngine engine(sim, machine);

    std::vector<WorkProfile> profiles;
    for (int i = 0; i < 16; ++i)
        profiles.push_back(cacheBound("co" + std::to_string(i), 4.0));
    const WorkProfile own = cacheBound("bystander", 4.0);

    std::vector<std::unique_ptr<ExecContext>> ctxs;
    auto start = [&](const WorkProfile &p, CpuId cpu) {
        ctxs.push_back(std::make_unique<ExecContext>(p.name, 0));
        engine.setWork(*ctxs.back(), p, 1e12, [] {});
        engine.startRun(*ctxs.back(), cpu);
    };
    for (CpuId c = 0; c < 16; ++c)
        start(profiles[c], c);
    ExecContext bystander("bystander", 0);
    engine.setWork(bystander, own, 1e12, [] {});

    const double before = engine.rateOn(bystander, 17);
    start(profiles[15], 16);
    EXPECT_EQ(engine.rateOn(bystander, 17), before);
}

TEST(ExecSharing, OccupancyOrderDoesNotChangeRates)
{
    // Two engines reach one final occupancy of rome128's CCX 0 (CPUs
    // 0-3 and their siblings 64-67) through different start/stop
    // orders. The working sets are non-integer byte counts (0.8 MiB as
    // in perf/synth), chosen so that a floating-point sum taken in the
    // order the profiles first started, instead of ascending-CPU
    // order, would change the low bits of most rates: every context
    // must read bit-equal rates.
    const std::vector<WorkProfile> palette = {
        cacheBound("a", 0.8), cacheBound("b", 6.1), cacheBound("c", 4.6),
        cacheBound("d", 4.5), cacheBound("e", 6.7)};
    // Final occupancy: (profile index, cpu).
    const std::vector<std::pair<std::size_t, CpuId>> final_cpus = {
        {0, 0}, {1, 1}, {2, 2}, {0, 3}, {3, 64}, {4, 65}, {1, 66}};
    const WorkProfile probe_profile = cacheBound("probe", 7.7);

    struct World
    {
        sim::Simulation sim;
        topo::Machine machine{topo::rome128()};
        ExecEngine engine{sim, machine};
        std::vector<std::unique_ptr<ExecContext>> ctxs;
        ExecContext probe{"probe", 0};
    };
    auto build = [&](World &w) {
        for (std::size_t i = 0; i < final_cpus.size(); ++i) {
            w.ctxs.push_back(std::make_unique<ExecContext>(
                std::string("t").append(std::to_string(i)), 0));
            w.engine.setWork(*w.ctxs.back(),
                             palette[final_cpus[i].first], 1e12, [] {});
        }
        w.engine.setWork(w.probe, probe_profile, 1e12, [] {});
    };

    World up;
    build(up);
    for (std::size_t i = 0; i < final_cpus.size(); ++i)
        up.engine.startRun(*up.ctxs[i], final_cpus[i].second);

    // Descending final CPUs, with detours through CPUs that end up
    // empty or taken by another context, all inside the CCX.
    World down;
    build(down);
    ExecEngine &e = down.engine;
    auto &t = down.ctxs;
    e.startRun(*t[5], 67);
    e.startRun(*t[0], 1);
    e.startRun(*t[6], 66);
    e.startRun(*t[4], 2);
    e.stopRun(*t[5]);
    e.startRun(*t[5], 65);
    e.stopRun(*t[4]);
    e.startRun(*t[4], 64);
    e.stopRun(*t[0]);
    e.startRun(*t[3], 3);
    e.startRun(*t[2], 2);
    e.startRun(*t[1], 1);
    e.startRun(*t[0], 0);
    for (std::size_t i = 0; i < final_cpus.size(); ++i) {
        ASSERT_EQ(up.ctxs[i]->cpu(), final_cpus[i].second);
        ASSERT_EQ(down.ctxs[i]->cpu(), final_cpus[i].second);
    }

    for (std::size_t i = 0; i < final_cpus.size(); ++i) {
        const CpuId cpu = final_cpus[i].second;
        EXPECT_EQ(up.engine.rateOn(*up.ctxs[i], cpu),
                  down.engine.rateOn(*down.ctxs[i], cpu))
            << "context " << i << " on cpu " << cpu;
    }
    EXPECT_EQ(up.engine.rateOn(up.probe, 67),
              down.engine.rateOn(down.probe, 67));
}

/**
 * Property: right after any start or stop, every context running on
 * that CPU's CCX holds exactly the rate a fresh evaluation gives it on
 * its own CPU. A seeded storm on rome128's first four CCXs covers
 * shared and distinct profiles, SMT pairs, cross-CCX moves that go
 * cold, frequency-bucket crossings (a ninth active core leaves the
 * boost bucket) and re-homing of running contexts, so an engine that
 * keeps a rate after one of its inputs moved fails here.
 */
class ExecPricing : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ExecPricing, CoRunnersHoldFreshRates)
{
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    ExecEngine engine(sim, machine);
    Rng rng(GetParam());

    // Four profiles over 24 contexts: most starts and stops leave the
    // CCX's set of distinct profiles as it was.
    const std::vector<WorkProfile> profiles = {
        cacheBound("p0", 3.0), cacheBound("p1", 5.0),
        cacheBound("p2", 8.0), cacheBound("p3", 12.0)};
    // CCXs 0-3: 16 cores on node 0, each with its SMT sibling.
    std::vector<CpuId> cpus;
    for (CcxId x = 0; x < 4; ++x) {
        for (CpuId c : machine.cpuListOfCcx(x))
            cpus.push_back(c);
    }

    unsigned checked = 0;
    unsigned stale = 0;
    std::string first_stale;
    auto check_ccx = [&](CcxId ccx) {
        for (CpuId c : machine.cpuListOfCcx(ccx)) {
            const ExecContext *ctx = engine.runningOn(c);
            if (!ctx)
                continue;
            ++checked;
            const double fresh = engine.rateOn(*ctx, c);
            if (ctx->rate() != fresh && stale++ == 0) {
                first_stale = ctx->name() + " on cpu " +
                              std::to_string(c) + " at " +
                              std::to_string(sim.now()) + " ns";
            }
        }
    };

    constexpr unsigned kContexts = 24;
    std::vector<std::unique_ptr<ExecContext>> ctxs;
    std::vector<std::size_t> profile_of(kContexts);
    for (unsigned i = 0; i < kContexts; ++i) {
        const NodeId home =
            i % 3 == 0 ? kInvalidNode
                       : static_cast<NodeId>(rng.index(machine.numNodes()));
        ctxs.push_back(std::make_unique<ExecContext>(
            std::string("s").append(std::to_string(i)), home));
    }
    // Completions detach too: check the CCX the context just left.
    auto give = [&](unsigned i) {
        profile_of[i] = rng.index(profiles.size());
        ExecContext *ctx = ctxs[i].get();
        engine.setWork(*ctx, profiles[profile_of[i]],
                       rng.uniformReal(1e5, 5e7), [&, ctx] {
                           check_ccx(machine.ccxOf(ctx->lastCpu()));
                       });
    };
    for (unsigned i = 0; i < kContexts; ++i)
        give(i);

    unsigned freq_steps = 0, smt_starts = 0, shared_starts = 0,
             distinct_starts = 0, rehomes = 0;
    for (int step = 0; step < 4000; ++step) {
        sim.runUntil(sim.now() + rng.uniformInt(1, 20) * kMicrosecond);
        const unsigned i = static_cast<unsigned>(rng.index(kContexts));
        ExecContext &ctx = *ctxs[i];
        const double freq = engine.socketFreqGhz(0);
        if (!ctx.hasWork()) {
            give(i);
        } else if (!ctx.running()) {
            const CpuId cpu = cpus[rng.index(cpus.size())];
            if (engine.runningOn(cpu))
                continue;
            const CcxId ccx = machine.ccxOf(cpu);
            bool shared = false;
            for (CpuId c : machine.cpuListOfCcx(ccx)) {
                for (unsigned j = 0; j < kContexts; ++j) {
                    if (engine.runningOn(c) == ctxs[j].get() &&
                        profile_of[j] == profile_of[i])
                        shared = true;
                }
            }
            ++(shared ? shared_starts : distinct_starts);
            if (engine.runningOn(machine.siblingOf(cpu)))
                ++smt_starts;
            engine.startRun(ctx, cpu);
            check_ccx(ccx);
        } else if (rng.chance(0.3)) {
            const NodeId home =
                static_cast<NodeId>(rng.index(machine.numNodes()));
            if (home != ctx.homeNode())
                ++rehomes;
            ctx.setHomeNode(home);
        } else {
            const CcxId ccx = machine.ccxOf(ctx.cpu());
            engine.stopRun(ctx);
            check_ccx(ccx);
        }
        if (engine.socketFreqGhz(0) != freq)
            ++freq_steps;
    }

    double cold_ns = 0.0;
    for (const auto &ctx : ctxs)
        cold_ns += ctx->counters().coldNs;
    EXPECT_EQ(stale, 0u) << "of " << checked << " checks; first: "
                         << first_stale;
    EXPECT_GT(checked, 5000u);
    EXPECT_GT(freq_steps, 100u);
    EXPECT_GT(smt_starts, 200u);
    EXPECT_GT(shared_starts, 300u);
    EXPECT_GT(distinct_starts, 300u);
    EXPECT_GT(rehomes, 200u);
    EXPECT_GT(cold_ns, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecPricing,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace microscale::cpu
