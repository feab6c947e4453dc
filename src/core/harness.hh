/**
 * @file
 * The run harness every runner shares: the simulated world, the
 * warmup/measurement window protocol, the app-independent result
 * harvest, and the TeaStore composition built on them.
 *
 * A runner builds a World, registers its app's services, arms the
 * fault script, starts the kernel, the app and its load, calls
 * runWindows and then harvest. Construction and start order is part of
 * the output: events scheduled at the same tick fire in scheduling
 * order, so moving one start call changes results.
 */

#ifndef MICROSCALE_CORE_HARNESS_HH
#define MICROSCALE_CORE_HARNESS_HH

#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "cpu/exec.hh"
#include "sim/simulation.hh"

namespace microscale::core
{

/** Name of op number `op` of an app (its op enum value). */
using OpNameFn = const char *(*)(unsigned op);

/**
 * Machine, execution engine, OS kernel, network and service mesh of
 * one run, plus the run's fault injector and window snapshots.
 */
class World
{
  public:
    /**
     * Build the world of `config` (which must outlive it) with
     * `resilience` as the mesh policy: config.resilience, or a
     * runner's extension of it.
     */
    World(const ExperimentConfig &config,
          const svc::ResilienceConfig &resilience);
    ~World();

    World(const World &) = delete;
    World &operator=(const World &) = delete;

    /** Arm config.faults; call once every service is registered. */
    void armFaults();

    /**
     * Run to the end of the warmup, snapshot the counters of
     * `services`, the scheduler and CPU busy time, restart the
     * services' per-op stats, then run the measurement window.
     */
    void runWindows(std::vector<svc::Service *> services);

    /**
     * The result blocks that do not depend on the app: events, budget,
     * throughput, latency, per-op latency (named by `opName`), service
     * counters, scheduler activity, breakdowns, resilience, trace
     * attribution rooted at `traceRoot`, gray failures and CPU
     * utilization. Call after runWindows.
     */
    RunResult harvest(const loadgen::Measurement &measurement,
                      OpNameFn opName, const char *traceRoot,
                      bool degradedFallbacks) const;

    /** Cache-line aligned: unaligned, it read ~5% slower (DESIGN.md). */
    alignas(64) sim::Simulation sim;
    topo::Machine machine;
    cpu::ExecEngine engine;
    os::Kernel kernel;
    net::Network network;
    svc::Mesh mesh;
    /** The run's CPU budget (config.cores, config.smt). */
    const CpuMask budget;

  private:
    const ExperimentConfig &config_;
    std::unique_ptr<svc::FaultInjector> injector_;
    std::vector<svc::Service *> services_;
    std::vector<cpu::PerfCounters> counters_at_warmup_;
    os::SchedStats sched_at_warmup_;
    std::vector<double> busy_at_warmup_;
};

/**
 * One TeaStore run: the world, the initial plan, the sized and placed
 * app, the brownout controller and the load driver, built in that
 * order. runExperiment and autoscale::runElastic compose it.
 */
class TeaStoreRun
{
  public:
    /**
     * Build everything short of starting it. The plan comes from
     * config.planOverride, else from buildPlacement over a footprint
     * of `initialCores` physical cores (0 = the whole budget), which
     * must lie inside the budget.
     */
    explicit TeaStoreRun(const ExperimentConfig &config,
                         unsigned initialCores = 0);
    /** Stops the load, the brownout controller and the app. */
    ~TeaStoreRun();

    TeaStoreRun(const TeaStoreRun &) = delete;
    TeaStoreRun &operator=(const TeaStoreRun &) = delete;

    /** Start the kernel, the app and the brownout controller. */
    void start();
    /** Start the load driver. */
    void startLoad();

    /**
     * Run the windows and harvest: the shared blocks, the overload
     * block and config.harvestExtra. The result stays owned by the run
     * until finish().
     */
    RunResult &measure();

    /** Drain if config.drainAtEnd (then config.postDrain); hand over
     * the result. */
    RunResult finish();

    World world;
    const PlacementPlan plan;
    teastore::App app;

  private:
    const ExperimentConfig &config_;
    std::unique_ptr<svc::BrownoutController> brownout_;
    std::unique_ptr<loadgen::ClosedLoopDriver> closed_;
    std::unique_ptr<loadgen::OpenLoopDriver> open_;
    loadgen::Measurement *measurement_ = nullptr;
    RunResult result_;
};

} // namespace microscale::core

#endif // MICROSCALE_CORE_HARNESS_HH
