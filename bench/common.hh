/**
 * @file
 * Shared harness for the benchmark binaries.
 *
 * Every figNN/tabNN binary reproduces one artifact of the paper's
 * evaluation on the rome128 machine model. Binaries accept the shared
 * flags (--jobs N, --out-dir PATH), run their sweep on the parallel
 * core::SweepRunner, print the table/series the paper reports, and
 * write a machine-readable BENCH_<stem>.json next to it. Set
 * MICROSCALE_BENCH_FAST=1 to shrink windows for smoke runs and
 * MICROSCALE_BENCH_JOBS to set the default worker count.
 */

#ifndef MICROSCALE_BENCH_COMMON_HH
#define MICROSCALE_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/table.hh"
#include "core/sweep.hh"

namespace microscale::benchx
{

/**
 * Version of the BENCH_*.json layout, stamped into every artifact as
 * "schema_version" (json_check requires it). Bump when the top-level
 * layout or the meaning of an existing field changes; purely additive
 * per-point result fields do not bump it. Version 2 = the original
 * (unstamped) layout plus the stamp itself and the optional per-point
 * "elastic" block. Version 3 adds the top-level speed stamps:
 * "wall_seconds" (reporter construction to finish()) and
 * "events_processed" (summed over every successful point's result).
 */
inline constexpr int kBenchSchemaVersion = 3;

/** True when MICROSCALE_BENCH_FAST=1 is set. */
bool fastMode();

/**
 * Demand shares for partitioning, measured on the browse profile at
 * saturation and refined under the pinned placement (runRefined), so
 * they reflect pinned-regime IPC. Kept fixed here so every bench
 * partitions identically; fig05 re-derives them live to demonstrate
 * the workflow.
 */
core::DemandShares calibratedDemand();

/**
 * The paper's operating point: rome128, tuned baseline sizing,
 * closed-loop browse-profile load at saturation.
 */
core::ExperimentConfig paperConfig(unsigned users = 3000);

/**
 * Parse the shared harness flags (--jobs, --out-dir). Call first in
 * every bench main; exits on --help or unknown flags.
 */
void init(int argc, char **argv);

/** Worker threads for runSweep: --jobs, else core::resolveJobs(0). */
unsigned jobs();

/**
 * Directory that receives BENCH_<stem>.json: --out-dir, else the
 * MICROSCALE_BENCH_OUT_DIR environment variable, else the current
 * directory.
 */
std::string outDir();

/**
 * Collects one artifact's labeled results and tables, prints the
 * banner/summaries/tables the paper-style output needs, and writes
 * BENCH_<stem>.json (see EXPERIMENTS.md for the schema) on finish().
 */
class SeriesReporter
{
  public:
    /**
     * The banner names the reference config's machine and its load; a
     * reference without users or an open-loop rate prints no load
     * line.
     */
    SeriesReporter(std::string artifact, std::string stem,
                   std::string caption,
                   const core::ExperimentConfig &reference);

    /** Record one labeled point for the JSON series. */
    void add(const std::string &label, const core::RunResult &result);

    /**
     * Record a failed point: the JSON gets {"label", "error"} instead
     * of a result, which json_check treats as a hard failure.
     */
    void addError(const std::string &label, const std::string &message);

    /** Print "  <label>: <summary>" for every recorded point. */
    void printSummaries() const;

    /** Print a table with its caption and record it for the JSON. */
    void table(const TextTable &t, const std::string &caption);

    /** Wall-clock seconds since this reporter was constructed. */
    double wallSeconds() const;

    /** Engine events summed over every successful recorded point. */
    std::uint64_t eventsProcessed() const { return events_processed_; }

    /** Write BENCH_<stem>.json; prints the path. */
    void finish();

  private:
    struct StoredTable
    {
        std::string caption;
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
    };

    struct StoredPoint
    {
        std::string label;
        core::RunResult result;
        /** Non-empty when the point failed (no valid result). */
        std::string error;
    };

    std::string artifact_;
    std::string stem_;
    std::string caption_;
    std::string machine_;
    std::vector<StoredPoint> points_;
    std::vector<StoredTable> tables_;
    /** Construction time; finish() stamps the elapsed wall clock. */
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::uint64_t events_processed_ = 0;
};

/**
 * Run the labeled points on a core::SweepRunner (jobs()) and record
 * every result with the reporter in submission order. If any point
 * fails, its error is recorded for the JSON ("error" field, which
 * json_check rejects), the JSON is written, and the bench fatal()s:
 * bench artifacts need every point, but a partial JSON beats none.
 */
std::vector<core::SweepOutcome>
runSweep(const std::vector<core::SweepPoint> &points,
         SeriesReporter &reporter);

} // namespace microscale::benchx

#endif // MICROSCALE_BENCH_COMMON_HH
