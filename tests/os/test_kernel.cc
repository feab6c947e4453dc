/**
 * @file
 * Tests for the OS scheduler: dispatch, wake placement, preemption,
 * affinity enforcement, stealing and fairness.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/random.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

namespace microscale::os
{
namespace
{

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest()
        : machine_(topo::small8()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, SchedParams{}, 1)
    {
        profile_.name = "test-work";
        profile_.ipcBase = 1.0;
        profile_.branchMpki = 0.0;
        profile_.icacheMpki = 0.0;
        profile_.l3Apki = 0.0;
        profile_.wssBytes = 1024 * 1024;
    }

    /** ~1ms of work at 2.5-3 GHz. */
    static constexpr double kChunk = 3e6;

    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    Kernel kernel_;
    cpu::WorkProfile profile_;
};

TEST_F(KernelTest, ThreadStartsBlocked)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    EXPECT_EQ(t->state(), Thread::State::Blocked);
    EXPECT_EQ(t->cpuTimeNs(), 0.0);
}

TEST_F(KernelTest, RunExecutesAndBlocksAgain)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    bool done = false;
    t->run(profile_, kChunk, [&] { done = true; });
    EXPECT_EQ(t->state(), Thread::State::Running);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(t->state(), Thread::State::Blocked);
    EXPECT_GT(t->cpuTimeNs(), 0.0);
    EXPECT_EQ(kernel_.stats().wakeups, 1u);
}

TEST_F(KernelTest, CallbackCanChainWork)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    int rounds = 0;
    std::function<void()> again = [&] {
        if (++rounds < 5)
            t->run(profile_, kChunk, again);
    };
    t->run(profile_, kChunk, again);
    sim_.run();
    EXPECT_EQ(rounds, 5);
}

TEST_F(KernelTest, AffinityIsRespected)
{
    Thread *t = kernel_.createThread("t", CpuMask::single(2));
    kernel_.start();
    int rounds = 0;
    std::function<void()> again = [&] {
        EXPECT_EQ(t->ec().lastCpu(), 2u);
        if (++rounds < 10)
            t->run(profile_, kChunk, again);
    };
    t->run(profile_, kChunk, again);
    sim_.run();
    EXPECT_EQ(rounds, 10);
    EXPECT_EQ(t->ec().counters().migrations, 0u);
}

TEST_F(KernelTest, WakePrefersLastCpu)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    t->run(profile_, kChunk, [] {});
    sim_.run();
    const CpuId first = t->ec().lastCpu();
    t->run(profile_, kChunk, [] {});
    sim_.run();
    EXPECT_EQ(t->ec().lastCpu(), first);
}

TEST_F(KernelTest, TwoThreadsShareOnePinnedCpu)
{
    kernel_.start();
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    Thread *b = kernel_.createThread("b", CpuMask::single(0));
    bool da = false, db = false;
    // Long enough that preemption must interleave them (several ms).
    a->run(profile_, 12 * kChunk, [&] { da = true; });
    b->run(profile_, 12 * kChunk, [&] { db = true; });
    sim_.run();
    EXPECT_TRUE(da);
    EXPECT_TRUE(db);
    EXPECT_GT(kernel_.stats().preemptions, 0u);
    EXPECT_GT(kernel_.stats().contextSwitches, 0u);
    // Fairness: preemption interleaves, so CPU time is comparable.
    EXPECT_NEAR(a->cpuTimeNs() / b->cpuTimeNs(), 1.0, 0.5);
}

TEST_F(KernelTest, ParallelThreadsUseDifferentCpus)
{
    kernel_.start();
    std::vector<Thread *> threads;
    for (int i = 0; i < 4; ++i) {
        threads.push_back(kernel_.createThread("t" + std::to_string(i),
                                               machine_.allCpus()));
    }
    for (auto *t : threads)
        t->run(profile_, kChunk, [] {});
    // All should be dispatched to distinct CPUs immediately.
    sim_.runUntil(kernel_.params().switchCost + 1);
    std::vector<bool> used(machine_.numCpus(), false);
    unsigned running = 0;
    for (CpuId c = 0; c < machine_.numCpus(); ++c) {
        if (engine_.runningOn(c)) {
            ++running;
            used[c] = true;
        }
    }
    EXPECT_EQ(running, 4u);
    sim_.run();
}

TEST_F(KernelTest, NewIdleStealRebalances)
{
    kernel_.start();
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    Thread *b = kernel_.createThread("b", CpuMask::single(1));
    Thread *c = kernel_.createThread("c", CpuMask::range(0, 1));

    a->run(profile_, 30 * kChunk, [] {});
    b->run(profile_, kChunk / 2, [] {});
    bool c_done = false;
    c->run(profile_, 2 * kChunk, [&] { c_done = true; });
    // c lands behind a or b; when b finishes, cpu 1 must steal c
    // rather than idle while c waits behind a.
    sim_.run();
    EXPECT_TRUE(c_done);
    EXPECT_GT(kernel_.stats().newIdlePulls + kernel_.stats().balancePulls,
              0u);
}

TEST_F(KernelTest, SetAffinityMigratesRunningThread)
{
    kernel_.start();
    Thread *t = kernel_.createThread("t", CpuMask::single(0));
    t->run(profile_, 30 * kChunk, [] {});
    sim_.runUntil(kMillisecond);
    EXPECT_EQ(t->ec().cpu(), 0u);
    t->setAffinity(CpuMask::single(3));
    sim_.runUntil(2 * kMillisecond);
    EXPECT_EQ(t->ec().cpu(), 3u);
    sim_.run();
    EXPECT_EQ(t->ec().lastCpu(), 3u);
}

TEST_F(KernelTest, SwitchCostChargesKernelWork)
{
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    bool done = false;
    a->run(profile_, kChunk, [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    // The initial dispatch switches from idle: cost charged.
    EXPECT_GT(a->ec().counters().kernelInstructions, 0.0);
}

TEST_F(KernelTest, QueueDepthVisible)
{
    Thread *a = kernel_.createThread("a", CpuMask::single(0));
    Thread *b = kernel_.createThread("b", CpuMask::single(0));
    a->run(profile_, 10 * kChunk, [] {});
    b->run(profile_, 10 * kChunk, [] {});
    EXPECT_EQ(kernel_.queueDepth(0), 1u);
    sim_.run();
    EXPECT_EQ(kernel_.queueDepth(0), 0u);
}

TEST_F(KernelTest, StatsCountWakeups)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    for (int i = 0; i < 3; ++i) {
        t->run(profile_, kChunk, [] {});
        sim_.run();
    }
    EXPECT_EQ(kernel_.stats().wakeups, 3u);
    EXPECT_EQ(t->ec().counters().wakeups, 3u);
}

TEST_F(KernelTest, DeathOnRunWhileRunning)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    t->run(profile_, kChunk, [] {});
    EXPECT_DEATH(t->run(profile_, kChunk, [] {}), "non-blocked");
}

TEST_F(KernelTest, DeathOnEmptyAffinity)
{
    EXPECT_EXIT(kernel_.createThread("bad", CpuMask()),
                ::testing::ExitedWithCode(1), "affinity");
}

TEST_F(KernelTest, DeathOnBadHomeNode)
{
    EXPECT_EXIT(kernel_.createThread("bad", machine_.allCpus(), 99),
                ::testing::ExitedWithCode(1), "home node");
}

TEST_F(KernelTest, SetAffinityTrimsToMachine)
{
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    t->setAffinity(CpuMask::range(6, 300));
    EXPECT_EQ(t->affinity(), CpuMask::range(6, 7));
}

TEST_F(KernelTest, DeathOnSetAffinityOffMachine)
{
    // A running thread re-placed onto no CPU at all.
    kernel_.start();
    Thread *t = kernel_.createThread("t", machine_.allCpus());
    t->run(profile_, kChunk, [] {});
    EXPECT_EXIT(t->setAffinity(CpuMask::single(200)),
                ::testing::ExitedWithCode(1), "affinity");
    EXPECT_EXIT(t->setAffinity(CpuMask()), ::testing::ExitedWithCode(1),
                "affinity");
}

/**
 * The pull rule on rome128, where CCX k holds CPUs 4k..4k+3 and their
 * SMT siblings 64+4k..64+4k+3, and node n holds CCXs 4n..4n+3. Long
 * pinned runners keep the victim CPUs busy, and a one-second timeslice
 * keeps them from rotating, so every queue holds exactly the threads a
 * test put there.
 */
class KernelPullTest : public ::testing::Test
{
  protected:
    KernelPullTest()
        : machine_(topo::rome128()),
          engine_(sim_, machine_),
          kernel_(sim_, machine_, engine_, params(), 1)
    {
        profile_.name = "pull";
        profile_.ipcBase = 1.0;
        profile_.branchMpki = 0.0;
        profile_.icacheMpki = 0.0;
        profile_.l3Apki = 0.0;
        kernel_.start();
    }

    static SchedParams params()
    {
        SchedParams sp;
        sp.timeslice = kSecond;
        return sp;
    }

    /** ~0.2ms of work. */
    static constexpr double kShort = 6e5;
    /** ~100ms of work. */
    static constexpr double kLong = 3e8;

    /** Run one item of `work` on a thread pinned to `cpu`. */
    void pin(CpuId cpu, double work)
    {
        kernel_.createThread("pin" + std::to_string(cpu),
                             CpuMask::single(cpu))
            ->run(profile_, work, [] {});
    }

    /**
     * Queue a short item behind `cpu`'s runner on a thread pinned
     * there, then widen its mask by `also`. The thread's name goes
     * into ran_ when it completes.
     */
    Thread *queueOn(CpuId cpu, const CpuMask &also, const std::string &name)
    {
        Thread *t = kernel_.createThread(name, CpuMask::single(cpu));
        t->run(profile_, kShort, [this, name] { ran_.push_back(name); });
        EXPECT_EQ(t->state(), Thread::State::Runnable) << name;
        if (!also.empty())
            t->setAffinity(CpuMask::single(cpu) | also);
        return t;
    }

    sim::Simulation sim_;
    topo::Machine machine_;
    cpu::ExecEngine engine_;
    Kernel kernel_;
    cpu::WorkProfile profile_;
    std::vector<std::string> ran_;
};

TEST_F(KernelPullTest, CcxBeatsDeeperNodeAndNodeBeatsDeeperMachine)
{
    // CPU 0 pulls. CPU 3 shares its CCX, CPU 8 its node, CPU 40 is on
    // node 2; their queues hold 1, 2 and 3 threads allowed on CPU 0.
    const CpuMask puller = CpuMask::single(0);
    pin(0, kShort);
    for (CpuId c : {3u, 8u, 40u})
        pin(c, kLong);
    queueOn(3, puller, "ccx");
    queueOn(8, puller, "node1");
    queueOn(8, puller, "node2");
    queueOn(40, puller, "far1");
    queueOn(40, puller, "far2");
    queueOn(40, puller, "far3");

    sim_.runUntil(10 * kMillisecond);
    const std::vector<std::string> order = {"ccx",  "node1", "node2",
                                            "far1", "far2",  "far3"};
    EXPECT_EQ(ran_, order);
    EXPECT_EQ(kernel_.stats().newIdlePulls, 6u);
    EXPECT_EQ(kernel_.stats().balancePulls, 0u);
    for (CpuId c : {3u, 8u, 40u})
        EXPECT_EQ(kernel_.queueDepth(c), 0u) << "cpu " << c;
}

TEST_F(KernelPullTest, EqualDepthGoesToLowerCpu)
{
    // The higher CPU's queue is built first, so queue age cannot
    // decide the tie.
    const CpuMask puller = CpuMask::single(1);
    pin(1, kShort);
    pin(66, kLong);
    pin(2, kLong);
    queueOn(66, puller, "high");
    queueOn(2, puller, "low");

    sim_.runUntil(10 * kMillisecond);
    const std::vector<std::string> order = {"low", "high"};
    EXPECT_EQ(ran_, order);
    EXPECT_EQ(kernel_.stats().newIdlePulls, 2u);
}

TEST_F(KernelPullTest, SkipsQueuesWhoseThreadsExcludeThePuller)
{
    // CPU 0 pulls. CPU 1's three queued threads may not run on it, so
    // the deepest queue is passed over. CPU 3 outranks CPU 2 by depth,
    // and its first queued thread excludes CPU 0, so the second goes.
    const CpuMask puller = CpuMask::single(0);
    pin(0, kShort);
    for (CpuId c : {1u, 2u, 3u})
        pin(c, kLong);
    for (int i = 0; i < 3; ++i)
        queueOn(1, CpuMask(), "pinned" + std::to_string(i));
    queueOn(2, puller, "shallow");
    queueOn(3, CpuMask(), "excluded");
    queueOn(3, puller, "allowed");

    sim_.runUntil(10 * kMillisecond);
    const std::vector<std::string> order = {"allowed", "shallow"};
    EXPECT_EQ(ran_, order);
    EXPECT_EQ(kernel_.stats().newIdlePulls, 2u);
    EXPECT_EQ(kernel_.queueDepth(1), 3u);
    EXPECT_EQ(kernel_.queueDepth(3), 1u);
}

TEST_F(KernelPullTest, WideningToAnIdleCpuLetsTheBalancerPull)
{
    // CPU 40 is idle throughout, so only the balancer can pull for it.
    pin(5, kLong);
    Thread *t = queueOn(5, CpuMask(), "widened");
    sim_.runUntil(kMillisecond);
    ASSERT_TRUE(kernel_.cpuIdle(40));
    t->setAffinity(CpuMask::single(5) | CpuMask::single(40));
    EXPECT_EQ(t->state(), Thread::State::Runnable);

    sim_.runUntil(kMillisecond + kernel_.params().balancePeriod);
    EXPECT_EQ(kernel_.stats().balancePulls, 1u);
    EXPECT_EQ(kernel_.stats().newIdlePulls, 0u);
    EXPECT_EQ(kernel_.queueDepth(5), 0u);
    EXPECT_EQ(t->ec().lastCpu(), 40u);
}

TEST_F(KernelPullTest, NarrowingKeepsThreadOffCpu)
{
    // CPU 40 goes idle after its short item. CPU 41's queue is the
    // deeper one, but both its threads were narrowed off CPU 40, so
    // CPU 40 must take CPU 42's thread instead.
    const CpuMask puller = CpuMask::single(40);
    pin(40, kShort);
    pin(41, kLong);
    pin(42, kLong);
    Thread *a = queueOn(41, puller, "narrowed1");
    Thread *b = queueOn(41, puller, "narrowed2");
    queueOn(42, puller, "other");
    a->setAffinity(CpuMask::single(41));
    b->setAffinity(CpuMask::single(41));

    sim_.runUntil(10 * kMillisecond);
    const std::vector<std::string> order = {"other"};
    EXPECT_EQ(ran_, order);
    EXPECT_EQ(kernel_.stats().newIdlePulls, 1u);
    EXPECT_EQ(kernel_.queueDepth(41), 2u);
    sim_.run();
    EXPECT_EQ(a->ec().lastCpu(), 41u);
    EXPECT_EQ(b->ec().lastCpu(), 41u);
}

/**
 * Property: random workloads with random affinities all complete, and
 * every thread only ever runs inside its affinity mask.
 */
class KernelProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(KernelProperty, AllWorkCompletesWithinAffinity)
{
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    Kernel kernel(sim, machine, engine, SchedParams{}, GetParam());
    kernel.start();
    Rng rng(GetParam());

    cpu::WorkProfile profile;
    profile.name = "prop";
    profile.ipcBase = 1.5;
    profile.l3Apki = 2.0;
    profile.wssBytes = 2.0 * 1024 * 1024;

    constexpr int kThreads = 12;
    constexpr int kRounds = 8;
    int completions = 0;
    struct Job
    {
        Thread *thread;
        CpuMask affinity;
        int rounds = 0;
    };
    std::vector<Job> jobs;
    jobs.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        const CpuId lo =
            static_cast<CpuId>(rng.uniformInt(0, machine.numCpus() - 1));
        const CpuId hi = static_cast<CpuId>(
            rng.uniformInt(lo, machine.numCpus() - 1));
        const CpuMask mask = CpuMask::range(lo, hi);
        const std::string name = std::string("p").append(std::to_string(i));
        jobs.push_back(Job{kernel.createThread(name, mask), mask});
    }

    std::function<void(int)> submit = [&](int i) {
        Job &job = jobs[i];
        job.thread->run(
            profile, rng.uniformReal(0.5e6, 4e6), [&, i] {
                Job &j = jobs[i];
                EXPECT_TRUE(j.affinity.test(j.thread->ec().lastCpu()))
                    << "thread " << i << " ran on cpu "
                    << j.thread->ec().lastCpu() << " outside "
                    << j.affinity.toString();
                ++completions;
                if (++j.rounds < kRounds)
                    submit(i);
            });
    };
    for (int i = 0; i < kThreads; ++i)
        submit(i);
    sim.run();
    EXPECT_EQ(completions, kThreads * kRounds);
    kernel.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

/**
 * Property: the scheduler's per-CPU load bookkeeping survives a storm
 * of wakes, short-timeslice preemptions and affinity changes. Once the
 * storm drains every CPU reads idle, and a fresh burst of threads is
 * spread one per idle core before any SMT sibling is used. The storm's
 * scheduler counters and end time are pinned per machine: a change
 * that only speeds the scheduler up must reproduce them exactly.
 */
class KernelStorm : public ::testing::TestWithParam<std::string>
{
};

struct StormFingerprint
{
    std::uint64_t wakeups;
    std::uint64_t contextSwitches;
    std::uint64_t preemptions;
    std::uint64_t migrations;
    std::uint64_t ccxMigrations;
    std::uint64_t balancePulls;
    std::uint64_t newIdlePulls;
    Tick end;
};

const std::map<std::string, StormFingerprint> &
stormFingerprints()
{
    static const std::map<std::string, StormFingerprint> prints = {
        {"small8", {72, 130, 58, 67, 21, 0, 31, 2022379}},
        {"server32", {288, 519, 231, 297, 107, 0, 159, 2000525}},
        {"rome128", {1152, 2377, 1225, 1352, 613, 0, 693, 2621859}},
    };
    return prints;
}

TEST_P(KernelStorm, DrainsIdleThenSpreadsOnePerCore)
{
    sim::Simulation sim;
    topo::Machine machine(topo::presetByName(GetParam()));
    cpu::ExecEngine engine(sim, machine);
    SchedParams sp;
    sp.timeslice = 50 * kMicrosecond;
    sp.balancePeriod = 200 * kMicrosecond;
    Kernel kernel(sim, machine, engine, sp, 7);
    kernel.start();
    Rng rng(7);

    cpu::WorkProfile profile;
    profile.name = "storm";
    profile.ipcBase = 1.2;
    profile.l3Apki = 2.0;
    profile.wssBytes = 2.0 * 1024 * 1024;

    auto randomMask = [&] {
        const unsigned cpus = machine.numCpus();
        switch (rng.uniformInt(0, 3)) {
          case 0:
            return machine.allCpus();
          case 1:
            return machine.cpusOfCcx(
                static_cast<CcxId>(rng.index(machine.numCcxs())));
          case 2:
            return CpuMask::single(static_cast<CpuId>(rng.index(cpus)));
          default: {
            const auto lo = static_cast<CpuId>(rng.index(cpus));
            return CpuMask::range(
                lo, static_cast<CpuId>(rng.uniformInt(lo, cpus - 1)));
          }
        }
    };

    // Oversubscribed: 1.5 threads per CPU, several work items each.
    const std::size_t n = machine.numCpus() * 3 / 2;
    constexpr int kRounds = 6;
    std::vector<Thread *> threads;
    std::vector<int> rounds(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        threads.push_back(
            kernel.createThread("s" + std::to_string(i), randomMask()));
    }
    int completions = 0;
    std::function<void(std::size_t)> submit = [&](std::size_t i) {
        threads[i]->run(profile, rng.uniformReal(0.05e6, 0.6e6),
                        [&, i] {
                            ++completions;
                            if (++rounds[i] < kRounds)
                                submit(i);
                        });
    };
    for (std::size_t i = 0; i < n; ++i)
        submit(i);
    for (std::size_t k = 0; k < 4 * n; ++k) {
        Thread *t = threads[rng.index(n)];
        const CpuMask mask = randomMask();
        sim.scheduleAt(static_cast<Tick>(rng.uniformInt(1, 2000)) *
                           kMicrosecond,
                       [t, mask] { t->setAffinity(mask); });
    }
    sim.run();
    EXPECT_EQ(completions, static_cast<int>(n) * kRounds);
    EXPECT_GT(kernel.stats().preemptions, 0u);
    const SchedStats &s = kernel.stats();
    const StormFingerprint &want = stormFingerprints().at(GetParam());
    EXPECT_EQ(s.wakeups, want.wakeups);
    EXPECT_EQ(s.contextSwitches, want.contextSwitches);
    EXPECT_EQ(s.preemptions, want.preemptions);
    EXPECT_EQ(s.migrations, want.migrations);
    EXPECT_EQ(s.ccxMigrations, want.ccxMigrations);
    EXPECT_EQ(s.balancePulls, want.balancePulls);
    EXPECT_EQ(s.newIdlePulls, want.newIdlePulls);
    EXPECT_EQ(sim.now(), want.end);
    for (CpuId c = 0; c < machine.numCpus(); ++c) {
        EXPECT_TRUE(kernel.cpuIdle(c)) << "cpu " << c;
        EXPECT_EQ(kernel.cpuLoad(c), 0u) << "cpu " << c;
        EXPECT_EQ(kernel.queueDepth(c), 0u) << "cpu " << c;
        EXPECT_EQ(engine.runningOn(c), nullptr) << "cpu " << c;
    }

    // Fresh unpinned threads: one per core, all on primary threads.
    std::vector<Thread *> burst;
    for (CoreId i = 0; i < machine.numCores(); ++i) {
        burst.push_back(kernel.createThread("b" + std::to_string(i),
                                            machine.allCpus()));
        burst.back()->run(profile, 50e6, [] {});
    }
    sim.runUntil(sim.now() + sp.switchCost + 1);
    std::vector<bool> core_used(machine.numCores(), false);
    for (Thread *t : burst) {
        const CpuId cpu = t->ec().cpu();
        ASSERT_NE(cpu, kInvalidCpu) << t->name();
        EXPECT_TRUE(machine.isPrimaryThread(cpu)) << t->name();
        EXPECT_FALSE(core_used[machine.coreOf(cpu)]) << t->name();
        core_used[machine.coreOf(cpu)] = true;
    }
    sim.run();
    kernel.stop();
}

INSTANTIATE_TEST_SUITE_P(Machines, KernelStorm,
                         ::testing::Values("small8", "rome128",
                                           "server32"));

} // namespace
} // namespace microscale::os
