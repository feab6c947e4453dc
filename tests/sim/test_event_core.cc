/**
 * @file
 * Tests for the slab-allocated event core: randomized
 * schedule/cancel/reschedule interleavings cross-checked against a
 * naive reference queue, FIFO tie-break and heap-property invariants,
 * handle-generation reuse safety, EventFn storage classes, and the
 * queuedEvents() live-count semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "base/types.hh"
#include "sim/simulation.hh"

namespace microscale::sim
{
namespace
{

// ---------------------------------------------------------------- EventFn

TEST(EventFn, EmptyByDefault)
{
    EventFn f;
    EXPECT_FALSE(static_cast<bool>(f));
}

TEST(EventFn, InlineInvokes)
{
    int hits = 0;
    EventFn f([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(f));
    f();
    f();
    EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int hits = 0;
    EventFn a([&hits] { ++hits; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: testing moved-from
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, NonTrivialInlineCaptureDestroyed)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventFn f([token] { (void)*token; });
        token.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventFn, OversizedCaptureHeapBoxed)
{
    // > kInlineBytes of capture forces the heap-box path.
    struct Big
    {
        std::uint64_t pad[12];
    };
    Big big{};
    big.pad[11] = 42;
    std::uint64_t seen = 0;
    EventFn f([big, &seen] { seen = big.pad[11]; });
    static_assert(sizeof(big) > EventFn::kInlineBytes);
    EventFn g(std::move(f));
    g();
    EXPECT_EQ(seen, 42u);
}

TEST(EventFn, StdFunctionFitsInline)
{
    // The PeriodicEvent path stores a std::function inside an EventFn.
    static_assert(sizeof(std::function<void()>) <=
                  EventFn::kInlineBytes);
    int hits = 0;
    std::function<void()> fn = [&hits] { ++hits; };
    EventFn f(std::move(fn));
    f();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, ResetReleasesCapture)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    EventFn f([token] {});
    token.reset();
    f.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_FALSE(static_cast<bool>(f));
}

// ------------------------------------------------------- slab + handles

TEST(EventCore, QueuedEventsCountsLiveOnly)
{
    Simulation sim;
    EventHandle a = sim.scheduleAt(10, [] {});
    EventHandle b = sim.scheduleAt(20, [] {});
    sim.scheduleAt(30, [] {});
    EXPECT_EQ(sim.queuedEvents(), 3u);
    // A cancelled event leaves a shell in the heap, but the count
    // reports live pending events only.
    a.cancel();
    EXPECT_EQ(sim.queuedEvents(), 2u);
    b.cancel();
    EXPECT_EQ(sim.queuedEvents(), 1u);
    sim.run();
    EXPECT_EQ(sim.queuedEvents(), 0u);
    EXPECT_EQ(sim.eventsProcessed(), 1u);
}

TEST(EventCore, SlotsAreReused)
{
    Simulation sim;
    for (int round = 0; round < 100; ++round) {
        sim.scheduleAfter(1, [] {});
        sim.run();
    }
    // Steady-state churn must not grow the slab.
    EXPECT_LE(sim.slabSlots(), 4u);
}

TEST(EventCore, StaleHandleAfterReuseIsInert)
{
    Simulation sim;
    int first = 0, second = 0;
    EventHandle h = sim.scheduleAt(10, [&] { ++first; });
    sim.run();
    EXPECT_EQ(first, 1);
    EXPECT_FALSE(h.pending());
    // The slot is recycled for a new event; the stale handle must not
    // observe or cancel it.
    sim.scheduleAt(20, [&] { ++second; });
    EXPECT_EQ(sim.slabSlots(), 1u);
    EXPECT_FALSE(h.pending());
    EXPECT_EQ(h.when(), 0u);
    h.cancel();
    sim.run();
    EXPECT_EQ(second, 1);
}

TEST(EventCore, DoubleCancelIsSafe)
{
    Simulation sim;
    bool ran = false;
    EventHandle h = sim.scheduleAt(10, [&] { ran = true; });
    EventHandle copy = h;
    h.cancel();
    h.cancel();
    copy.cancel();
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.queuedEvents(), 0u);
}

TEST(EventCore, CancelReleasesCaptureEagerly)
{
    Simulation sim;
    auto token = std::make_shared<int>(3);
    std::weak_ptr<int> watch = token;
    EventHandle h = sim.scheduleAt(10, [token] {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    h.cancel();
    // Captured resources die at cancel, not at pop.
    EXPECT_TRUE(watch.expired());
}

TEST(EventCore, ManyCancelsCompactHeap)
{
    // Pathological churn: schedule far-future events and cancel them
    // all; lazy deletion must compact instead of accumulating shells.
    Simulation sim;
    int ran = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<EventHandle> hs;
        hs.reserve(50);
        for (int i = 0; i < 50; ++i)
            hs.push_back(
                sim.scheduleAt(1000000 + round, [&ran] { ++ran; }));
        for (EventHandle &h : hs)
            h.cancel();
    }
    EXPECT_EQ(sim.queuedEvents(), 0u);
    // Compaction also recycles the slots, so the slab stays bounded
    // by the peak number of simultaneously-scheduled events.
    EXPECT_LE(sim.slabSlots(), 256u);
    sim.scheduleAt(2000000, [&ran] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.now(), 2000000u);
}

TEST(EventCore, CancelDuringRunUntilBoundarySkip)
{
    Simulation sim;
    int ran = 0;
    EventHandle h = sim.scheduleAt(50, [&] { ++ran; });
    sim.scheduleAt(10, [&] { h.cancel(); });
    sim.runUntil(100);
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.queuedEvents(), 0u);
}

// ------------------------------------------- randomized cross-check

/** Naive reference: linear scan for min-(when, seq), flag cancel. */
struct RefQueue
{
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        int id;
        bool cancelled = false;
        bool fired = false;
    };
    std::vector<Ev> evs;
    std::uint64_t next_seq = 0;

    int add(Tick when, int id)
    {
        evs.push_back({when, next_seq++, id});
        return static_cast<int>(evs.size()) - 1;
    }

    /** Fire all events with when <= until; return ids in order. */
    std::vector<int> drain(Tick until)
    {
        std::vector<int> out;
        for (;;) {
            Ev *best = nullptr;
            for (Ev &e : evs) {
                if (e.cancelled || e.fired || e.when > until)
                    continue;
                if (!best || e.when < best->when ||
                    (e.when == best->when && e.seq < best->seq))
                    best = &e;
            }
            if (!best)
                return out;
            best->fired = true;
            out.push_back(best->id);
        }
    }
};

TEST(EventCore, RandomizedMatchesReferenceQueue)
{
    // Drive the slab core and the naive reference with an identical
    // random interleaving of schedule/cancel/reschedule/advance
    // operations and require identical firing orders. The reference
    // models rescheduleAt as cancel + add with a fresh sequence
    // number. Events land far ahead of short advances and cancels
    // outnumber fires, so cancelled shells pile up until the heap
    // compacts (about 30 times over the 20 trials), with rekeys on
    // both sides of each compaction.
    std::mt19937_64 rng(12345);
    for (int trial = 0; trial < 20; ++trial) {
        Simulation sim;
        RefQueue ref;
        std::vector<int> simFired, refFired;
        std::vector<std::pair<EventHandle, int>> live; // handle, ref idx
        Tick horizon = 0;
        int next_id = 0;
        for (int op = 0; op < 1200; ++op) {
            const std::uint64_t what = rng() % 20;
            if (what < 9) {
                const Tick when = horizon + rng() % 20000;
                const int id = next_id++;
                live.emplace_back(
                    sim.scheduleAt(when,
                                   [&simFired, id] {
                                       simFired.push_back(id);
                                   }),
                    ref.add(when, id));
            } else if (what < 14 && !live.empty()) {
                const std::size_t pick = rng() % live.size();
                live[pick].first.cancel();
                ref.evs[live[pick].second].cancelled = true;
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            } else if (what < 18 && !live.empty()) {
                // Earlier, same or later tick than before.
                const std::size_t pick = rng() % live.size();
                const Tick when = horizon + rng() % 20000;
                ASSERT_TRUE(sim.rescheduleAt(live[pick].first, when));
                RefQueue::Ev &old = ref.evs[live[pick].second];
                old.cancelled = true;
                live[pick].second = ref.add(when, old.id);
                ASSERT_EQ(live[pick].first.when(), when);
            } else {
                horizon += rng() % 300;
                sim.runUntil(horizon);
                const std::vector<int> out = ref.drain(horizon);
                refFired.insert(refFired.end(), out.begin(),
                                out.end());
                // Firing can invalidate handles; drop fired entries.
                live.erase(std::remove_if(
                               live.begin(), live.end(),
                               [](const auto &p) {
                                   return !p.first.pending();
                               }),
                           live.end());
            }
            ASSERT_EQ(simFired, refFired) << "trial " << trial
                                          << " op " << op;
            ASSERT_EQ(sim.queuedEvents(), live.size());
        }
        horizon += 1000000;
        sim.runUntil(horizon);
        const std::vector<int> out = ref.drain(horizon);
        refFired.insert(refFired.end(), out.begin(), out.end());
        EXPECT_EQ(simFired, refFired) << "trial " << trial;
        EXPECT_EQ(sim.queuedEvents(), 0u);
    }
}

TEST(EventCore, RescheduleViaCancelPlusScheduleKeepsFifo)
{
    // The ExecEngine::reprice pattern: cancel the pending completion
    // and schedule a new one, repeatedly, interleaved with other
    // same-tick events. FIFO among equal ticks must follow the final
    // schedule order.
    Simulation sim;
    std::vector<int> order;
    EventHandle completion =
        sim.scheduleAt(100, [&] { order.push_back(0); });
    sim.scheduleAt(100, [&] { order.push_back(1); });
    completion.cancel();
    completion = sim.scheduleAt(100, [&] { order.push_back(2); });
    sim.scheduleAt(100, [&] { order.push_back(3); });
    completion.cancel();
    completion = sim.scheduleAt(100, [&] { order.push_back(4); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(EventCore, RescheduleInPlaceKeepsFifo)
{
    // The same sequence with rescheduleAt: each rekey takes the next
    // sequence number, so the completion fires after every event
    // scheduled before its last rekey, as cancel + schedule would.
    Simulation sim;
    std::vector<int> order;
    EventHandle completion =
        sim.scheduleAt(100, [&] { order.push_back(0); });
    sim.scheduleAt(100, [&] { order.push_back(1); });
    EXPECT_TRUE(sim.rescheduleAt(completion, 100));
    sim.scheduleAt(100, [&] { order.push_back(3); });
    EXPECT_TRUE(sim.rescheduleAt(completion, 100));
    sim.scheduleAt(100, [&] { order.push_back(5); });
    EXPECT_EQ(sim.queuedEvents(), 4u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 5}));

    // Moving earlier or later re-sorts by time first.
    order.clear();
    EventHandle late = sim.scheduleAt(300, [&] { order.push_back(0); });
    EventHandle early = sim.scheduleAt(200, [&] { order.push_back(1); });
    EXPECT_TRUE(sim.rescheduleAt(late, 150));
    EXPECT_TRUE(sim.rescheduleAt(early, 400));
    EXPECT_EQ(late.when(), 150u);
    EXPECT_EQ(early.when(), 400u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(sim.now(), 400u);
}

TEST(EventCore, RescheduleOfDeadHandleIsInert)
{
    // Fired, stale-generation, cancelled and default handles are
    // refused and leave the queue as it was: nothing moves, nothing
    // is added, and the sequence counter does not advance (the two
    // same-tick events keep their FIFO order).
    Simulation sim;
    std::vector<int> order;
    EventHandle fired = sim.scheduleAt(10, [&] { order.push_back(0); });
    sim.run();
    EXPECT_FALSE(sim.rescheduleAt(fired, 25));

    // `reuse` recycles the fired event's slot under a new generation,
    // which makes `fired` stale: it must not move `reuse`.
    EventHandle reuse = sim.scheduleAt(30, [&] { order.push_back(2); });
    EXPECT_EQ(sim.slabSlots(), 1u);
    EXPECT_FALSE(sim.rescheduleAt(fired, 25));

    EventHandle cancelled =
        sim.scheduleAt(20, [&] { order.push_back(1); });
    cancelled.cancel();
    EXPECT_FALSE(sim.rescheduleAt(cancelled, 25));

    const EventHandle inert;
    EXPECT_FALSE(sim.rescheduleAt(inert, 25));

    EventHandle tail = sim.scheduleAt(30, [&] { order.push_back(3); });
    EXPECT_FALSE(cancelled.pending());
    EXPECT_EQ(fired.when(), 0u);
    EXPECT_EQ(reuse.when(), 30u);
    EXPECT_EQ(sim.queuedEvents(), 2u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
    EXPECT_FALSE(tail.pending());
}

} // namespace
} // namespace microscale::sim
