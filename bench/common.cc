#include "common.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "base/args.hh"
#include "base/logging.hh"
#include "core/json.hh"
#include "topo/machine.hh"

namespace microscale::benchx
{

namespace
{

unsigned gJobs = 0;        // 0 until init(); resolved lazily
std::string gOutDir;       // --out-dir override

void
printHeader(const std::string &artifact, const std::string &caption,
            const std::string &machine,
            const core::ExperimentConfig &config)
{
    std::cout << "==============================================\n"
              << artifact << ": " << caption << "\n"
              << "machine: " << machine << "\n";
    if (config.openLoopRps > 0.0) {
        std::cout << "load: open-loop " << config.openLoopRps
                  << " req/s, " << ticksToSeconds(config.measure)
                  << "s window\n";
    } else if (config.load.users > 0) {
        std::cout << "load: " << config.load.users
                  << " closed-loop users, "
                  << ticksToMillis(config.load.meanThink) << "ms think, "
                  << ticksToSeconds(config.measure) << "s window\n";
    }
    std::cout << "==============================================\n";
}

} // namespace

bool
fastMode()
{
    const char *v = std::getenv("MICROSCALE_BENCH_FAST");
    return v && v[0] == '1';
}

core::DemandShares
calibratedDemand()
{
    core::DemandShares d;
    d.webui = 0.45;
    d.auth = 0.03;
    d.persistence = 0.065;
    d.recommender = 0.045;
    d.image = 0.41;
    return d;
}

core::ExperimentConfig
paperConfig(unsigned users)
{
    core::ExperimentConfig c;
    c.machine = topo::rome128();
    c.load.users = users;
    c.demand = calibratedDemand();
    if (fastMode()) {
        c.warmup = 300 * kMillisecond;
        c.measure = 500 * kMillisecond;
    } else {
        c.warmup = 600 * kMillisecond;
        c.measure = 1500 * kMillisecond;
    }
    return c;
}

void
init(int argc, char **argv)
{
    ArgParser args("microscale benchmark (paper artifact reproduction)");
    args.addInt("jobs", 0,
                "sweep worker threads (0 = MICROSCALE_BENCH_JOBS or all "
                "hardware threads)");
    args.addString("out-dir", "",
                   "directory for BENCH_*.json results (default: "
                   "MICROSCALE_BENCH_OUT_DIR or the current directory)");
    if (!args.parse(argc, argv))
        std::exit(1);
    gJobs = static_cast<unsigned>(args.getInt("jobs"));
    gOutDir = args.getString("out-dir");
}

unsigned
jobs()
{
    return core::resolveJobs(gJobs);
}

std::string
outDir()
{
    if (!gOutDir.empty())
        return gOutDir;
    if (const char *env = std::getenv("MICROSCALE_BENCH_OUT_DIR")) {
        if (env[0] != '\0')
            return env;
    }
    return ".";
}

SeriesReporter::SeriesReporter(std::string artifact, std::string stem,
                               std::string caption,
                               const core::ExperimentConfig &reference)
    : artifact_(std::move(artifact)), stem_(std::move(stem)),
      caption_(std::move(caption))
{
    machine_ = topo::Machine(reference.machine).describe();
    printHeader(artifact_, caption_, machine_, reference);
}

void
SeriesReporter::add(const std::string &label,
                    const core::RunResult &result)
{
    events_processed_ += result.eventsProcessed;
    points_.push_back(StoredPoint{label, result, ""});
}

void
SeriesReporter::addError(const std::string &label,
                         const std::string &message)
{
    points_.push_back(StoredPoint{
        label, core::RunResult{},
        message.empty() ? std::string("unknown error") : message});
}

void
SeriesReporter::printSummaries() const
{
    for (const StoredPoint &p : points_) {
        if (p.error.empty())
            std::cout << "  " << p.label << ": " << core::summarize(p.result)
                      << "\n";
        else
            std::cout << "  " << p.label << ": ERROR: " << p.error << "\n";
    }
}

void
SeriesReporter::table(const TextTable &t, const std::string &caption)
{
    t.printWithCaption(caption);
    tables_.push_back(StoredTable{caption, t.headers(), t.rows()});
}

double
SeriesReporter::wallSeconds() const
{
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(elapsed).count();
}

void
SeriesReporter::finish()
{
    const std::string path =
        outDir() + "/BENCH_" + stem_ + ".json";
    std::ofstream os(path);
    if (!os) {
        warn("cannot write ", path, "; skipping JSON emission");
        return;
    }

    os << "{\"artifact\":\"" << core::jsonEscape(artifact_) << "\"";
    os << ",\"schema_version\":" << kBenchSchemaVersion;
    os << ",\"caption\":\"" << core::jsonEscape(caption_) << "\"";
    os << ",\"machine\":\"" << core::jsonEscape(machine_) << "\"";
    os << ",\"fast_mode\":" << (fastMode() ? "true" : "false");
    os << ",\"jobs\":" << jobs();
    // Speed stamps (schema v3): elapsed wall clock over the whole
    // artifact run and engine events summed across successful points,
    // so regressions in sim throughput show up in every artifact.
    os << ",\"wall_seconds\":" << wallSeconds();
    os << ",\"events_processed\":" << events_processed_;

    os << ",\"points\":[";
    bool first = true;
    for (const StoredPoint &p : points_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"label\":\"" << core::jsonEscape(p.label) << "\"";
        if (!p.error.empty()) {
            os << ",\"error\":\"" << core::jsonEscape(p.error) << "\"}";
            continue;
        }
        os << ",\"result\":";
        std::ostringstream buf;
        core::writeJson(buf, p.result);
        std::string body = buf.str();
        // writeJson appends a newline; strip it for embedding.
        while (!body.empty() && body.back() == '\n')
            body.pop_back();
        os << body << "}";
    }
    os << "]";

    os << ",\"tables\":[";
    first = true;
    for (const StoredTable &t : tables_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"caption\":\"" << core::jsonEscape(t.caption)
           << "\",\"headers\":[";
        for (std::size_t i = 0; i < t.headers.size(); ++i) {
            os << (i ? "," : "") << "\"" << core::jsonEscape(t.headers[i])
               << "\"";
        }
        os << "],\"rows\":[";
        for (std::size_t r = 0; r < t.rows.size(); ++r) {
            os << (r ? "," : "") << "[";
            for (std::size_t i = 0; i < t.rows[r].size(); ++i) {
                os << (i ? "," : "") << "\""
                   << core::jsonEscape(t.rows[r][i]) << "\"";
            }
            os << "]";
        }
        os << "]}";
    }
    os << "]}\n";
    os.close();
    inform("wrote ", path);
}

std::vector<core::SweepOutcome>
runSweep(const std::vector<core::SweepPoint> &points,
         SeriesReporter &reporter)
{
    core::SweepOptions so;
    so.jobs = jobs();
    const core::SweepRunner runner(so);
    std::vector<core::SweepOutcome> outcomes = runner.run(points);
    std::string first_failure;
    for (const core::SweepOutcome &o : outcomes) {
        if (o.ok) {
            reporter.add(o.label, o.result);
            continue;
        }
        reporter.addError(o.label, o.error);
        if (first_failure.empty())
            first_failure = "'" + o.label + "': " + o.error;
    }
    reporter.printSummaries();
    if (!first_failure.empty()) {
        // Persist what we have (failed points carry "error" fields, so
        // json_check still flags the artifact) before bailing out.
        reporter.finish();
        fatal("sweep point ", first_failure);
    }
    return outcomes;
}

} // namespace microscale::benchx
