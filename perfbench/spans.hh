/**
 * @file
 * Host-time spans for the simulator speed benchmark.
 *
 * The benchmark records spans around its own calls into each layer
 * (runner calls, run phases, simulated-time slices, layer replays).
 * Spans stay in memory and are written once, at exit, as Chrome
 * trace_event JSON that chrome://tracing and Perfetto load. Nothing
 * here touches the simulated world.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two host time points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One closed host-time span. */
struct Span
{
    std::uint32_t id = 0;
    /** Span that caused this one (0 = none). */
    std::uint32_t parent = 0;
    std::string name;
    /** Layer the span covers ("core", "sim", "cpu", ...). */
    std::string layer;
    Clock::time_point start;
    Clock::time_point end;
    std::map<std::string, double> args;
};

/** In-memory span store. A null recorder records nothing. */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    /** Record a closed span; returns its id. */
    std::uint32_t add(std::string name, std::string layer,
                      Clock::time_point start, Clock::time_point end,
                      std::uint32_t parent = 0,
                      std::map<std::string, double> args = {});

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write every span as a complete ("X") event on one track per
     * layer; `metadata` (a JSON object text) lands in "otherData".
     * Returns false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &metadata) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
