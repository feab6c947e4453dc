/**
 * @file
 * FIG-15: critical-path latency attribution from per-request traces.
 * The saturation workload runs with tracing on (sample rate 1) under
 * the OS-default and CCX-aware placements; the critical-path analyzer
 * attributes every sampled request's end-to-end latency to queueing,
 * compute, stall, fan-out wait, retry backoff, shedding and transport
 * per service, and the figure reports where the placement win comes
 * from. The bench also asserts the tracing invariants: the per-service
 * components plus the unattributed residue sum to the mean end-to-end
 * latency within 1%, the result is bit-identical whether the run
 * executes inline or on a sweep worker thread (--jobs independence),
 * the exported Chrome trace_event JSON re-parses with a non-empty
 * traceEvents array, and the pinned arm records replica CCX homes
 * while the unpinned arm records none.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "common.hh"
#include "core/json.hh"
#include "trace/export.hh"

using namespace microscale;

namespace
{

/** Attribution component sum (ns, summed over traces) vs e2e. */
double
componentSumNs(const core::TraceSummary &tr)
{
    double sum = tr.attribution.unattributedNs;
    for (const auto &[name, a] : tr.attribution.services)
        sum += a.totalNs();
    return sum;
}

/** Spans with a recorded CCX home across the whole store. */
std::uint64_t
spansWithCcx(const trace::TraceStore &store)
{
    std::uint64_t n = 0;
    for (const auto &t : store.traces()) {
        for (const trace::Span &s : t->spans())
            n += s.ccx >= 0 ? 1 : 0;
    }
    return n;
}

std::string
resultJson(const core::RunResult &r)
{
    std::ostringstream os;
    core::writeJson(os, r);
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::init(argc, argv);

    // The FIG-14 operating point: a 4-CCX slice at saturation. Every
    // external request is traced; the attribution is exact, so full
    // sampling only costs memory.
    core::ExperimentConfig base = benchx::paperConfig(/*users=*/2400);
    base.cores = 16;
    base.trace.enabled = true;
    base.trace.sampleRate = 1.0;

    benchx::SeriesReporter rep(
        "FIG-15", "fig15_trace_attribution",
        "critical-path attribution of end-to-end latency (queue, "
        "compute, stall, fan-out wait, retry backoff, shed, network "
        "per service) under OS-default vs CCX-aware placement, from "
        "per-request traces at sample rate 1",
        base);

    const std::vector<
        std::pair<const char *, core::PlacementKind>>
        arms = {{"os-default", core::PlacementKind::OsDefault},
                {"ccx-aware", core::PlacementKind::CcxAware}};

    std::vector<core::SweepPoint> points;
    for (const auto &[name, placement] : arms) {
        core::SweepPoint p;
        p.label = name;
        p.config = base;
        p.config.placement = placement;
        points.push_back(std::move(p));
    }
    const std::vector<core::SweepOutcome> runs =
        benchx::runSweep(points, rep);

    // Per-service attribution table: where each arm's latency goes,
    // and the delta the placement buys.
    TextTable t({"arm", "service", "queue", "compute", "stall",
                 "fanout", "backoff", "shed", "net", "total (ms)"});
    for (const core::SweepOutcome &o : runs) {
        const core::TraceSummary &tr = o.result.trace;
        const double toMs =
            tr.attribution.traces
                ? 1.0 / (static_cast<double>(tr.attribution.traces) * 1e6)
                : 0.0;
        for (const auto &[name, a] : tr.attribution.services) {
            t.row()
                .cell(o.label)
                .cell(name)
                .cell(a.queueNs * toMs, 3)
                .cell(a.computeNs * toMs, 3)
                .cell(a.stallNs * toMs, 3)
                .cell(a.fanoutNs * toMs, 3)
                .cell(a.backoffNs * toMs, 3)
                .cell(a.shedNs * toMs, 3)
                .cell(a.networkNs * toMs, 3)
                .cell(a.totalNs() * toMs, 3);
        }
    }
    rep.table(t, "FIG-15 | Critical-path attribution per service "
                 "(per-trace means, ms)");
    rep.finish();

    bool ok = true;

    // (a) The partition is exact: components + residue reproduce the
    // mean end-to-end latency within 1% on every arm.
    for (const core::SweepOutcome &o : runs) {
        const core::TraceSummary &tr = o.result.trace;
        if (tr.tracesAnalyzed == 0)
            fatal("fig15: arm '", o.label, "' analyzed no traces");
        const double sum = componentSumNs(tr);
        const double e2e = tr.attribution.e2eNs;
        const bool pass =
            e2e > 0.0 && std::abs(sum - e2e) <= 0.01 * e2e;
        std::printf("check (a) %-10s attribution sum %.3f ms vs e2e "
                    "%.3f ms over %llu traces  [%s]\n",
                    o.label.c_str(), sum / 1e6, e2e / 1e6,
                    static_cast<unsigned long long>(tr.tracesAnalyzed),
                    pass ? "PASS" : "FAIL");
        ok = ok && pass;
    }

    // (b) --jobs independence: rerunning the ccx-aware arm inline (no
    // sweep worker) must serialize to byte-identical JSON.
    {
        const core::RunResult inline_run =
            core::runExperiment(points[1].config);
        const bool pass =
            resultJson(inline_run) == resultJson(runs[1].result);
        std::printf("check (b) ccx-aware inline rerun JSON %s sweep "
                    "run  [%s]\n",
                    pass ? "matches" : "DIFFERS from",
                    pass ? "PASS" : "FAIL");
        ok = ok && pass;
    }

    // (c) The Chrome export round-trips: the file parses as JSON and
    // carries a non-empty traceEvents array. Its name stays outside
    // the BENCH_*.json pattern, which holds result documents only.
    {
        const std::string path =
            benchx::outDir() + "/fig15_trace.chrome.json";
        const core::TraceSummary &tr = runs[1].result.trace;
        bool pass = tr.store != nullptr &&
                    trace::writeChromeTraceFile(path, *tr.store);
        std::size_t events = 0;
        if (pass) {
            std::ifstream is(path);
            std::ostringstream buf;
            buf << is.rdbuf();
            try {
                const core::JsonValue v = core::parseJson(buf.str());
                const core::JsonValue *ev = v.find("traceEvents");
                pass = ev && ev->isArray() && !ev->elements.empty();
                events = ev ? ev->elements.size() : 0;
            } catch (const std::exception &e) {
                std::printf("fig15: chrome trace parse error: %s\n",
                            e.what());
                pass = false;
            }
        }
        std::printf("check (c) chrome trace %s: %zu events  [%s]\n",
                    path.c_str(), events, pass ? "PASS" : "FAIL");
        ok = ok && pass;
    }

    // (d) Replica homes: the pinned arm knows its CCXs, the unpinned
    // arm (workers free to migrate) records none.
    {
        const std::uint64_t pinned =
            spansWithCcx(*runs[1].result.trace.store);
        const std::uint64_t unpinned =
            spansWithCcx(*runs[0].result.trace.store);
        const bool pass = pinned > 0 && unpinned == 0;
        std::printf("check (d) spans with a CCX home: ccx-aware %llu, "
                    "os-default %llu  [%s]\n",
                    static_cast<unsigned long long>(pinned),
                    static_cast<unsigned long long>(unpinned),
                    pass ? "PASS" : "FAIL");
        ok = ok && pass;
    }

    if (!ok)
        fatal("FIG-15 tracing invariants not met (see checks above)");
    return 0;
}
