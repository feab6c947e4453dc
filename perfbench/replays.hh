/**
 * @file
 * Timed replays of each layer's public functions, outside any
 * workload: the per-layer host-time numbers of the traced pass. Every
 * replay performs a fixed number of operations (independent of the
 * seed, which only varies the inputs) and reports the count it
 * actually performed, so a self-check can catch a replay that did
 * less or more work than it claims.
 */

#ifndef PERFBENCH_REPLAYS_HH
#define PERFBENCH_REPLAYS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** One replay's outcome. */
struct ReplayResult
{
    /** Per-layer metric name, e.g. "cpu.start_stop_ns.occ4". */
    std::string metric;
    /** Host nanoseconds per operation. */
    double nsPerOp = 0.0;
    /** Operations performed and the count the replay is built for. */
    std::uint64_t ops = 0;
    std::uint64_t expectedOps = 0;
};

/**
 * Run every layer replay once, recording one span per replay under
 * `parent`. Inputs (event times, work profiles) derive from `seed`.
 */
std::vector<ReplayResult> runReplays(std::uint64_t seed,
                                     SpanRecorder &spans,
                                     std::uint32_t parent);

} // namespace perfbench

#endif // PERFBENCH_REPLAYS_HH
