/**
 * @file
 * FIG-3: individual service scale-up curves. Each leaf service is
 * driven directly (no WebUI front end) while pinned to a growing set
 * of cores, exposing how far each one scales before saturating -
 * the per-service characterization that motivates demand-proportional
 * CCX allocation.
 */

#include <functional>
#include <string>
#include <vector>

#include "common.hh"
#include "loadgen/driver.hh"

using namespace microscale;

namespace
{

struct Target
{
    const char *service;
    const char *op;
    /** Request builder: arg0/arg1 for the op. */
    std::uint64_t arg0, arg1;
};

/** Drive one leaf op against one service pinned to `cores` cores. */
double
leafThroughput(const Target &target, unsigned cores, Tick warmup,
               Tick measure)
{
    sim::Simulation sim;
    topo::Machine machine(topo::rome128());
    cpu::ExecEngine engine(sim, machine);
    os::Kernel kernel(sim, machine, engine, os::SchedParams{}, 42);
    net::Network network(sim, net::NetParams{}, 42);
    svc::Mesh mesh(kernel, network, svc::RpcCostParams{}, 42);

    teastore::AppParams ap;
    // One replica with a deep worker pool; affinity will confine it.
    const teastore::ServiceConfig cfg{1, 128};
    ap.webui = cfg;
    ap.auth = cfg;
    ap.persistence = cfg;
    ap.recommender = cfg;
    ap.image = cfg;
    ap.heartbeats = false;
    teastore::App app(mesh, ap, 42);

    const CpuMask budget = core::budgetMask(machine, cores, true);
    for (svc::Service *s : app.services()) {
        for (unsigned r = 0; r < s->replicaCount(); ++r)
            s->setReplicaPlacement(r, budget, kInvalidNode);
    }
    kernel.start();

    // Closed-loop clients issuing the leaf op directly.
    Rng rng(42, "fig03");
    const unsigned clients = 64 * cores;
    std::uint64_t completed = 0;
    const Tick window_start = warmup;
    const Tick window_end = warmup + measure;
    std::function<void()> spawn = [&]() {
        svc::Payload req;
        req.bytes = 512;
        req.arg0 = target.arg0 ? target.arg0
                               : app.store().sampleProduct(rng);
        req.arg1 = target.arg1;
        mesh.callExternal(target.service, target.op, req,
                          [&](const svc::Payload &) {
                              const Tick now = sim.now();
                              if (now >= window_start && now < window_end)
                                  ++completed;
                              spawn();
                          });
    };
    for (unsigned u = 0; u < clients; ++u)
        spawn();

    sim.runUntil(window_end);
    return static_cast<double>(completed) / ticksToSeconds(measure);
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::init(argc, argv);

    const Tick warmup =
        benchx::fastMode() ? 150 * kMillisecond : 300 * kMillisecond;
    const Tick measure =
        benchx::fastMode() ? 300 * kMillisecond : 700 * kMillisecond;

    const std::vector<Target> targets = {
        {"auth", "validate", 1, 0},
        {"persistence", "products", 1, 0},
        {"recommender", "recommend", 1, 2},
        {"image", "previews", 0, 20},
    };
    const std::vector<unsigned> core_counts = {2, 4, 8, 16, 32};

    // The reference names the simulated machine; the load is each
    // point's own (64 zero-think clients per core), so it has none.
    core::ExperimentConfig reference;
    reference.machine = topo::rome128();
    reference.load.users = 0;
    benchx::SeriesReporter rep(
        "FIG-3", "fig03_service_scaling",
        "individual service scale-up (ops/s, service pinned to N "
        "cores, SMT on)",
        reference);

    // Sweep points with a custom runner: each drives one leaf op in
    // its own isolated simulation, so they parallelize like any
    // runExperiment point.
    std::vector<core::SweepPoint> points;
    for (const Target &target : targets) {
        for (unsigned cores : core_counts) {
            core::SweepPoint p;
            p.label = std::string(target.service) + "." + target.op +
                      "@" + std::to_string(cores) + "c";
            p.runner = [target, cores, warmup,
                        measure](const core::ExperimentConfig &) {
                core::RunResult r;
                r.throughputRps =
                    leafThroughput(target, cores, warmup, measure);
                return r;
            };
            points.push_back(std::move(p));
        }
    }
    const std::vector<core::SweepOutcome> runs =
        benchx::runSweep(points, rep);

    TextTable t({"service/op", "2c", "4c", "8c", "16c", "32c",
                 "32c/2c speedup"});
    std::size_t i = 0;
    for (const Target &target : targets) {
        std::vector<double> tputs;
        for (unsigned cores : core_counts) {
            (void)cores;
            tputs.push_back(runs[i++].result.throughputRps);
        }
        auto row = t.row();
        row.cell(std::string(target.service) + "." + target.op);
        for (double v : tputs)
            row.cell(v, 0);
        row.cell(tputs.back() / tputs.front(), 2);
    }
    rep.table(t,
              "FIG-3 | Per-service throughput scaling with allocated "
              "cores");
    rep.finish();
    return 0;
}
