/**
 * @file
 * perfbench: host-time speed benchmark of the microscale simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH] [--calls N] [--setup-calls N]
 *
 * --trace 0 (the end-to-end pass): set-up calls with 1 ms simulated
 * windows give setup_s; full runner calls repeat for S seconds (or
 * exactly --calls times) and their medians give wall_s, sim_per_wall
 * and events_per_s.
 *
 * --trace 1 (the traced pass): one plain runner call, one call with
 * the host-time probe attached, the layer replays, and the per-layer
 * counts read from the result; spans go to --trace-out as Chrome
 * trace_event JSON.
 *
 * The last stdout line is one JSON object holding the run manifest,
 * the simulated outputs of every call, the self-checks and the
 * metrics. run.py builds this program, checks the simulated outputs
 * against the references and prints the benchmark's result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/args.hh"
#include "base/logging.hh"
#include "core/json.hh"
#include "replays.hh"
#include "spans.hh"
#include "trace/critical_path.hh"
#include "workloads.hh"

namespace ms = microscale;
using namespace perfbench;

namespace
{

/** Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** FNV-1a, 64 bit, as 16 hex digits. */
std::string
digest(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Minimal JSON object writer with full-precision numbers. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v)
    {
        std::ostringstream os;
        os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
        return raw(key, os.str());
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        quoted += ms::core::jsonEscape(v);
        quoted += '"';
        return raw(key, quoted);
    }
    JsonObject &boolean(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"';
        body_ += ms::core::jsonEscape(key);
        body_ += "\":";
        body_ += json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Requests completed inside the measurement window. */
double
completed(const Workload &w, const ms::core::RunResult &r)
{
    return std::round(r.throughputRps * w.measureSeconds);
}

/** The simulated outputs run.py checks against the references. */
std::string
outputsJson(const Workload &w, const ms::core::RunResult &r)
{
    return JsonObject()
        .num("throughput_rps", r.throughputRps)
        .num("p50_ms", r.latency.p50Ms)
        .num("p99_ms", r.latency.p99Ms)
        .num("completed", completed(w, r))
        .num("error_share", r.resilience.errorRate)
        .num("events", static_cast<double>(r.eventsProcessed))
        .text();
}

std::string
callJson(const Workload &w, const CallOutcome &c, const std::string &pass)
{
    JsonObject o;
    o.str("pass", pass)
        .num("model_seed", static_cast<double>(w.config.seed))
        .boolean("ok", c.ok)
        .num("wall_s", c.wallSeconds());
    if (c.ok)
        o.raw("outputs", outputsJson(w, c.result));
    else
        o.str("error", c.error);
    return o.text();
}

/** Metrics in insertion order: name -> {value, unit}. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        obj_.raw(name, JsonObject().num("value", value).str("unit", unit)
                           .text());
    }
    std::string text() const { return obj_.text(); }

  private:
    JsonObject obj_;
};

/** Model seeds one pass cycles through. */
constexpr unsigned kSubSeeds = 8;

/** Model seed of end-to-end call `j` of the pass run with `seed`. */
std::uint64_t
modelSeed(std::uint64_t seed, unsigned j)
{
    return seed * 1000 + j % kSubSeeds;
}

/** Wall seconds of `calls` set-up runner calls (1 ms windows). */
std::vector<double>
setupWalls(const std::string &name, std::uint64_t seed, unsigned calls,
           SpanRecorder &spans)
{
    Workload tiny;
    makeWorkload(name, seed, /*tiny=*/true, tiny);
    std::vector<double> walls;
    for (unsigned i = 0; i < calls; ++i) {
        const CallOutcome c = runOnce(tiny);
        if (!c.ok)
            ms::fatal("set-up call failed: ", c.error);
        walls.push_back(c.wallSeconds());
        spans.add("setup-call", "core", c.start, c.end);
    }
    return walls;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    /** Set-up calls before each full call (and in the traced pass). */
    unsigned setupCalls = 7;
    /** Exact number of end-to-end calls; 0 = as many as fit. */
    unsigned calls = 0;
};

/**
 * The end-to-end pass: medians over repeated runner calls. Call j runs
 * model seed modelSeed(seed, j), so one pass spreads over several
 * seeds and its medians do not hinge on one seed's event count; every
 * kSubSeeds-th call repeats a seed and must reproduce it exactly.
 * Set-up calls run before every full call, so setup_s samples the host
 * over the whole pass rather than one instant at its start.
 */
void
endToEnd(const Args &a, SpanRecorder &spans, std::vector<std::string> &calls,
         JsonObject &checks, Metrics &metrics)
{
    // Repeat full calls until the next one would overrun the budget
    // (or exactly --calls times).
    const Clock::time_point start = Clock::now();
    std::vector<double> setup, walls, events;
    double sim_seconds = 0.0;
    std::map<std::uint64_t, std::string> json_by_seed;
    bool repeatable = true;
    for (unsigned j = 0;; ++j) {
        Workload w;
        makeWorkload(a.workload, modelSeed(a.seed, j), false, w);
        const std::vector<double> s =
            setupWalls(a.workload, w.config.seed, a.setupCalls, spans);
        setup.insert(setup.end(), s.begin(), s.end());
        const CallOutcome c = runOnce(w);
        calls.push_back(callJson(w, c, "e2e"));
        spans.add("runner-call", "core", c.start, c.end, 0,
                  {{"model_seed", static_cast<double>(w.config.seed)}});
        if (c.ok) {
            walls.push_back(c.wallSeconds());
            sim_seconds = w.simSeconds;
            events.push_back(static_cast<double>(c.result.eventsProcessed));
            const std::string json = ms::core::toJson(c.result);
            const auto [it, fresh] = json_by_seed.emplace(w.config.seed, json);
            repeatable = repeatable && (fresh || it->second == json);
        }
        const double elapsed = secondsBetween(start, Clock::now());
        const double per_call = elapsed / static_cast<double>(j + 1);
        if (a.calls > 0 ? j + 1 >= a.calls : elapsed + per_call > a.seconds)
            break;
    }
    checks.boolean("repeat_calls_identical", repeatable);
    std::cerr << "perfbench: " << calls.size() << " calls in "
              << secondsBetween(start, Clock::now()) << " s\n";

    const double setup_s = median(setup);
    std::vector<double> sim_per_wall, events_per_s;
    for (std::size_t i = 0; i < walls.size(); ++i) {
        const double simulating = std::max(walls[i] - setup_s, 1e-9);
        sim_per_wall.push_back(sim_seconds / simulating);
        events_per_s.push_back(events[i] / simulating);
    }
    metrics.add("sim_per_wall", median(sim_per_wall), "s/s");
    metrics.add("events_per_s", median(events_per_s), "1/s");
    metrics.add("wall_s", median(walls), "s");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", peakRssMb(), "MB");
}

/** The traced pass: per-layer counts, phases, slices and replays. */
void
traced(const Args &a, const Workload &w, SpanRecorder &spans,
       std::vector<std::string> &calls, JsonObject &checks,
       Metrics &metrics)
{
    const Clock::time_point root_start = Clock::now();

    // Plain call first: the reference for the identity check and the
    // untraced half of the tracing overhead.
    const CallOutcome plain = runOnce(w);
    calls.push_back(callJson(w, plain, "plain"));
    spans.add("runner-call/plain", "core", plain.start, plain.end);

    Workload hooked_w = w;
    Probe probe(w.config.warmup);
    if (w.hooked)
        probe.attach(hooked_w.config);
    const CallOutcome hooked = runOnce(hooked_w);
    calls.push_back(callJson(w, hooked, "traced"));
    const std::uint32_t call_span =
        spans.add("runner-call/traced", "core", hooked.start, hooked.end);
    if (!plain.ok || !hooked.ok)
        ms::fatal("traced pass: runner call failed: ",
                  plain.ok ? hooked.error : plain.error);

    const ms::core::RunResult &r = hooked.result;
    checks.boolean("hooks_identical",
                   ms::core::toJson(plain.result) == ms::core::toJson(r));
    checks.boolean("same_model_events",
                   plain.result.eventsProcessed == r.eventsProcessed);

    // Phases and slices: measured where the runner calls the hooks,
    // else the whole call is one span (set-up from 1 ms calls).
    double phase_setup = 0.0, phase_warmup = 0.0, phase_measure = 0.0,
           phase_harvest = 0.0;
    std::vector<double> slice_ms;
    if (w.hooked) {
        const Tick end_tick = w.config.warmup + w.config.measure;
        const std::uint64_t expected_slices =
            end_tick / (10 * ms::kMillisecond);
        checks.boolean("sampler_fired_every_slice",
                       probe.harvested() &&
                           probe.samplerEvents() == expected_slices);
        Clock::time_point warm_end = probe.postBuildAt();
        Clock::time_point measure_end = probe.postBuildAt();
        for (const Probe::Stamp &s : probe.stamps()) {
            if (s.tick == w.config.warmup)
                warm_end = s.host;
            if (s.tick == end_tick)
                measure_end = s.host;
        }
        phase_setup = secondsBetween(hooked.start, probe.postBuildAt());
        phase_warmup = secondsBetween(probe.postBuildAt(), warm_end);
        phase_measure = secondsBetween(warm_end, measure_end);
        phase_harvest = secondsBetween(measure_end, hooked.end);
        spans.add("setup", "core", hooked.start, probe.postBuildAt(),
                  call_span);
        const std::uint32_t warm_span = spans.add(
            "warmup", "core", probe.postBuildAt(), warm_end, call_span);
        const std::uint32_t measure_span =
            spans.add("measure", "core", warm_end, measure_end, call_span);
        spans.add("harvest", "core", measure_end, hooked.end, call_span);
        Clock::time_point prev = probe.postBuildAt();
        for (const Probe::Stamp &s : probe.stamps()) {
            const bool in_window = s.tick > w.config.warmup;
            spans.add("slice", "sim", prev, s.host,
                      in_window ? measure_span : warm_span,
                      {{"sim_ms", ms::ticksToMillis(s.tick)}});
            if (in_window)
                slice_ms.push_back(secondsBetween(prev, s.host) * 1e3);
            prev = s.host;
        }
    } else {
        phase_setup = median(
            setupWalls(a.workload, w.config.seed, a.setupCalls, spans));
        phase_measure = hooked.wallSeconds() - phase_setup;
    }

    const double done = std::max(completed(w, r), 1.0);
    const double events = static_cast<double>(r.eventsProcessed);
    metrics.add("sim.events", events, "count");
    metrics.add("sim.events_per_req", events / done, "count/req");
    metrics.add("sim.slab_slots", static_cast<double>(probe.slabSlots()),
                "count");
    metrics.add("sim.slice_p50_ms", quantile(slice_ms, 0.50), "ms");
    metrics.add("sim.slice_p99_ms", quantile(slice_ms, 0.99), "ms");

    const Clock::time_point replays_start = Clock::now();
    const std::vector<ReplayResult> replays =
        runReplays(w.config.seed, spans, 0);
    spans.add("replays", "bench", replays_start, Clock::now());
    bool counts_ok = true;
    std::map<std::string, double> replay_ns;
    for (const ReplayResult &rr : replays) {
        counts_ok = counts_ok && rr.ops == rr.expectedOps;
        replay_ns[rr.metric] = rr.nsPerOp;
    }
    checks.boolean("replay_op_counts", counts_ok);
    for (const char *name : {"sim.churn_ns_per_event",
                             "topo.cpus_of_ccx_ns",
                             "cpu.start_stop_ns.occ1",
                             "cpu.start_stop_ns.occ4",
                             "cpu.start_stop_ns.occ8", "cpu.rate_on_ns"})
        metrics.add(name, replay_ns.at(name), "ns");

    const ms::os::SchedStats &sc = r.sched;
    metrics.add("os.wakeups_per_req", sc.wakeups / done, "count/req");
    metrics.add("os.switches_per_req", sc.contextSwitches / done,
                "count/req");
    metrics.add("os.migrations_per_req", sc.migrations / done, "count/req");
    metrics.add("os.ccx_migrations_per_req", sc.ccxMigrations / done,
                "count/req");
    metrics.add("os.wake_ns.unpinned", replay_ns.at("os.wake_ns.unpinned"),
                "ns");
    metrics.add("os.wake_ns.ccx", replay_ns.at("os.wake_ns.ccx"), "ns");

    metrics.add("net.messages_per_req",
                static_cast<double>(probe.windowMessages()) / done,
                "count/req");
    metrics.add("net.send_ns", replay_ns.at("net.send_ns"), "ns");
    metrics.add("svc.rpc_roundtrip_ns", replay_ns.at("svc.rpc_roundtrip_ns"),
                "ns");
    metrics.add("svc.retries", static_cast<double>(r.resilience.retries),
                "count");
    metrics.add("svc.shed", static_cast<double>(r.resilience.shed), "count");
    metrics.add("svc.hedges_launched",
                static_cast<double>(r.fanout.hedgesLaunched), "count");
    metrics.add("svc.hedges_cancelled",
                static_cast<double>(r.fanout.hedgesCancelled), "count");

    metrics.add("loadgen.completed", completed(w, r), "count");
    metrics.add("loadgen.error_share", r.resilience.errorRate, "share");
    metrics.add("autoscale.scale_outs",
                static_cast<double>(r.elastic.scaleOuts), "count");
    metrics.add("autoscale.scale_ins",
                static_cast<double>(r.elastic.scaleIns), "count");

    // Harvest-side replays on the traced call's result.
    std::vector<double> attribute_ms;
    if (r.trace.store) {
        const Tick w0 = w.config.warmup;
        const Tick w1 = w.config.warmup + w.config.measure;
        for (int i = 0; i < 5; ++i) {
            const Clock::time_point s = Clock::now();
            const ms::trace::Attribution at =
                ms::trace::attributeTraces(*r.trace.store, "", w0, w1);
            const Clock::time_point e = Clock::now();
            attribute_ms.push_back(secondsBetween(s, e) * 1e3);
            spans.add("attribute-traces", "trace", s, e, 0,
                      {{"traces", static_cast<double>(at.traces)}});
        }
    }
    constexpr int kToJson = 50;
    const Clock::time_point json_start = Clock::now();
    std::size_t json_bytes = 0;
    for (int i = 0; i < kToJson; ++i)
        json_bytes += ms::core::toJson(r).size();
    const Clock::time_point json_end = Clock::now();
    spans.add("to-json", "core", json_start, json_end, 0,
              {{"calls", kToJson},
               {"bytes", static_cast<double>(json_bytes)}});

    metrics.add("trace.spans", static_cast<double>(r.trace.spanCount),
                "count");
    metrics.add("trace.attribute_ms", median(attribute_ms), "ms");
    metrics.add("core.to_json_ms",
                secondsBetween(json_start, json_end) * 1e3 / kToJson, "ms");
    metrics.add("core.phase.setup_s", phase_setup, "s");
    metrics.add("core.phase.warmup_s", phase_warmup, "s");
    metrics.add("core.phase.measure_s", phase_measure, "s");
    metrics.add("core.phase.harvest_s", phase_harvest, "s");
    metrics.add("bench.trace_overhead_s",
                hooked.wallSeconds() - plain.wallSeconds(), "s");

    spans.add("traced-pass", "bench", root_start, Clock::now());
}

} // namespace

int
main(int argc, char **argv)
{
    ms::ArgParser parser("perfbench: simulator speed benchmark");
    parser.addString("workload", "", "workload name");
    parser.addInt("seed", 1, "workload seed");
    parser.addInt("seconds", 10, "measurement budget, host seconds");
    parser.addInt("trace", 0, "1 = traced pass (per-layer metrics)");
    parser.addString("trace-out", "", "Chrome trace output path");
    parser.addInt("setup-calls", 7,
                  "set-up calls (1 ms windows) before each full call");
    parser.addInt("calls", 0, "exact end-to-end calls (0 = fill --seconds)");
    if (!parser.parse(argc, argv))
        return 2;
    Args a;
    a.workload = parser.getString("workload");
    a.seed = static_cast<std::uint64_t>(parser.getInt("seed"));
    a.seconds = static_cast<double>(parser.getInt("seconds"));
    a.trace = parser.getInt("trace") != 0;
    a.traceOut = parser.getString("trace-out");
    a.setupCalls =
        static_cast<unsigned>(std::max<std::int64_t>(
            1, parser.getInt("setup-calls")));
    a.calls = static_cast<unsigned>(
        std::max<std::int64_t>(0, parser.getInt("calls")));

    // The traced pass runs the pass's first model seed.
    Workload w;
    if (!makeWorkload(a.workload, modelSeed(a.seed, 0), /*tiny=*/false, w)) {
        std::cerr << "perfbench: unknown workload '" << a.workload
                  << "'\n";
        return 2;
    }
    ms::setLogLevel(ms::LogLevel::Quiet);

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const std::string manifest =
        JsonObject()
            .str("workload", w.name)
            .num("seed", static_cast<double>(a.seed))
            .num("sub_seeds", kSubSeeds)
            .str("config_digest", digest(w.configText))
            .str("config", w.configText)
            .str("build_type", build_type)
            .boolean("sanitized", sanitizedBuild())
            .boolean("release", build_type == "Release" && !sanitizedBuild())
            .str("compiler", PERFBENCH_COMPILER)
            .num("nproc", std::thread::hardware_concurrency())
            .num("sweep_jobs", 1)
            .text();

    SpanRecorder spans;
    std::vector<std::string> calls;
    JsonObject checks;
    Metrics metrics;
    if (a.trace)
        traced(a, w, spans, calls, checks, metrics);
    else
        endToEnd(a, spans, calls, checks, metrics);

    if (!a.traceOut.empty()) {
        checks.boolean("chrome_trace_written",
                       spans.writeChromeTrace(a.traceOut, manifest));
    }

    std::string calls_json = "[";
    for (std::size_t i = 0; i < calls.size(); ++i)
        calls_json += (i ? "," : "") + calls[i];
    calls_json += "]";
    std::cout << JsonObject()
                     .raw("manifest", manifest)
                     .raw("calls", calls_json)
                     .raw("checks", checks.text())
                     .raw("metrics", metrics.text())
                     .text()
              << std::endl;
    return 0;
}
