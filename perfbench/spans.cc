#include "spans.hh"

#include <fstream>
#include <iomanip>

#include "core/json.hh"

namespace perfbench
{

std::uint32_t
SpanRecorder::add(std::string name, std::string layer,
                  Clock::time_point start, Clock::time_point end,
                  std::uint32_t parent, std::map<std::string, double> args)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start = start;
    s.end = end;
    s.args = std::move(args);
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &metadata) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    using microscale::core::jsonEscape;
    auto micros = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };

    // One track (tid) per layer, in order of first appearance.
    std::map<std::string, int> tids;
    for (const Span &s : spans_)
        tids.emplace(s.layer, static_cast<int>(tids.size()) + 1);

    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
       << ",\"traceEvents\":[";
    bool first = true;
    for (const auto &[layer, tid] : tids) {
        os << (first ? "" : ",")
           << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
           << tid << ",\"args\":{\"name\":\"" << jsonEscape(layer)
           << "\"}}";
        first = false;
    }
    for (const Span &s : spans_) {
        os << (first ? "" : ",") << "{\"ph\":\"X\",\"pid\":1,\"tid\":"
           << tids.at(s.layer) << ",\"name\":\"" << jsonEscape(s.name)
           << "\",\"cat\":\"" << jsonEscape(s.layer)
           << "\",\"ts\":" << micros(s.start)
           << ",\"dur\":" << micros(s.end) - micros(s.start)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
        for (const auto &[key, value] : s.args)
            os << ",\"" << jsonEscape(key) << "\":" << value;
        os << "}}";
        first = false;
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
