/**
 * @file
 * MICRO: google-benchmark microbenchmarks of the simulation engine
 * itself - event queue throughput, CpuMask algebra, histogram insert
 * and quantile queries, scheduler dispatch, the scheduler's idle path
 * and execution-engine churn.
 * These bound how much simulated time per wall second the harness can
 * deliver.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string>

#include "base/cpumask.hh"
#include "base/stats.hh"
#include "cpu/exec.hh"
#include "os/kernel.hh"
#include "sim/simulation.hh"
#include "topo/presets.hh"

using namespace microscale;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulation sim;
        long sink = 0;
        for (int i = 0; i < batch; ++i)
            sim.scheduleAt(static_cast<Tick>(i % 97) + 1,
                           [&sink] { ++sink; });
        sim.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void
BM_EventCancellation(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        std::vector<sim::EventHandle> handles;
        handles.reserve(1000);
        for (int i = 0; i < 1000; ++i)
            handles.push_back(sim.scheduleAt(i + 1, [] {}));
        for (auto &h : handles)
            h.cancel();
        sim.run();
        benchmark::DoNotOptimize(sim.eventsProcessed());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCancellation);

void
BM_CpuMaskAlgebra(benchmark::State &state)
{
    const CpuMask a = CpuMask::range(0, 127);
    const CpuMask b = CpuMask::range(64, 255);
    for (auto _ : state) {
        CpuMask c = (a & b) | (a - b);
        benchmark::DoNotOptimize(c.count());
        benchmark::DoNotOptimize(c.first());
    }
}
BENCHMARK(BM_CpuMaskAlgebra);

void
BM_CpuMaskIterate(benchmark::State &state)
{
    const CpuMask m = CpuMask::range(0, 255);
    for (auto _ : state) {
        unsigned sum = 0;
        for (CpuId c : m)
            sum += c;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CpuMaskIterate);

void
BM_HistogramAdd(benchmark::State &state)
{
    QuantileHistogram h;
    double v = 1.0;
    for (auto _ : state) {
        h.add(v);
        v = v * 1.37 + 3.0;
        if (v > 1e12)
            v = 1.0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void
BM_HistogramQuantile(benchmark::State &state)
{
    QuantileHistogram h;
    Rng rng(1);
    for (int i = 0; i < 100000; ++i)
        h.add(rng.lognormal(1e6, 1.0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.p99());
    }
}
BENCHMARK(BM_HistogramQuantile);

void
BM_SchedulerDispatchCycle(benchmark::State &state)
{
    // One full wake -> dispatch -> complete cycle per item.
    sim::Simulation sim;
    topo::Machine machine(topo::small8());
    cpu::ExecEngine engine(sim, machine);
    os::SchedParams sp;
    sp.switchCost = 0;
    os::Kernel kernel(sim, machine, engine, sp, 1);
    os::Thread *t = kernel.createThread("bm", machine.allCpus());
    cpu::WorkProfile p;
    p.l3Apki = 0.0;
    p.branchMpki = 0.0;
    p.icacheMpki = 0.0;

    for (auto _ : state) {
        bool done = false;
        t->run(p, 1000.0, [&done] { done = true; });
        sim.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerDispatchCycle);

void
BM_SchedulerIdlePath(benchmark::State &state)
{
    // 16 unpinned threads run short items back to back on a started
    // rome128 kernel, so every completion leaves its CPU idle and goes
    // through new-idle stealing before the thread wakes again. With
    // Arg(n) > 0, n CCXs (one per node) also hold three CCX-pinned
    // threads per CPU: deep queues that no other CPU may steal from.
    const auto deep_ccxs = static_cast<CcxId>(state.range(0));
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    os::Kernel kernel(sim, machine, engine, os::SchedParams{}, 1);
    kernel.start();
    cpu::WorkProfile p;
    p.l3Apki = 0.0;
    p.branchMpki = 0.0;
    p.icacheMpki = 0.0;

    for (CcxId i = 0; i < deep_ccxs; ++i) {
        const CcxId ccx = i * (machine.numCcxs() / deep_ccxs);
        const CpuMask &cpus = machine.cpusOfCcx(ccx);
        for (unsigned k = 0; k < 3 * cpus.count(); ++k) {
            kernel.createThread("deep" + std::to_string(k), cpus)
                ->run(p, 1e15, [] {});
        }
    }
    std::uint64_t items = 0;
    std::function<void(os::Thread *)> submit = [&](os::Thread *t) {
        t->run(p, 1e4, [&, t] {
            ++items;
            submit(t);
        });
    };
    for (int i = 0; i < 16; ++i)
        submit(kernel.createThread("bm" + std::to_string(i),
                                   machine.allCpus()));

    for (auto _ : state) {
        sim.runUntil(sim.now() + 100 * kMicrosecond);
        benchmark::DoNotOptimize(items);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(items));
    state.counters["per_item"] = benchmark::Counter(
        static_cast<double>(items),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    kernel.stop();
}
BENCHMARK(BM_SchedulerIdlePath)->Arg(0)->Arg(4);

void
BM_ExecEngineChurn(benchmark::State &state)
{
    // Start/stop churn across CCXs exercises reprice paths.
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    cpu::WorkProfile p;
    p.wssBytes = 8.0 * 1024 * 1024;
    std::vector<std::unique_ptr<cpu::ExecContext>> ctxs;
    for (int i = 0; i < 16; ++i) {
        ctxs.push_back(std::make_unique<cpu::ExecContext>(
            "bm" + std::to_string(i), kInvalidNode));
        engine.setWork(*ctxs.back(), p, 1e15, [] {});
    }
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i)
            engine.startRun(*ctxs[i], static_cast<CpuId>(i * 8));
        sim.runUntil(sim.now() + kMicrosecond);
        for (int i = 0; i < 16; ++i)
            engine.stopRun(*ctxs[i]);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ExecEngineChurn);

} // namespace

BENCHMARK_MAIN();
