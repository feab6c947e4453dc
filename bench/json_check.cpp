/**
 * @file
 * json_check: CI validator for emitted BENCH_*.json artifacts.
 *
 *   json_check [--elastic] [--overload] [--trace] [--grayfail]
 *              [--scaleout] [--replication] [--fanout]
 *              FILE MIN_POINTS [LABEL...]
 *
 * Parses FILE with core::parseJson and requires the sweep-harness
 * schema: artifact/caption/machine strings, the expected
 * schema_version, the v3 speed stamps (finite non-negative
 * wall_seconds and events_processed), a points array of at least
 * MIN_POINTS entries each carrying a label and a result with a
 * positive throughput_rps, and a non-empty tables array. Any LABEL
 * arguments must appear among the point labels. Every point's result
 * must pass core::checkResultJson, which walks the same field list the
 * writer prints: present, numeric, finite and bounded fields for each
 * block the result carries, plus the cross-field relations (trace
 * attribution sums, quorum sizes, zero lost acked writes and stale
 * quorum reads, hedge counts). A block flag requires its block on
 * every point, or for --overload and --replication on at least one
 * (their baseline arms legitimately lack it); --replication also
 * requires every replication block to have consistency_checked = 1,
 * i.e. the post-drain sweep ran. Independently of any flag, every
 * number in the document must be finite: the writer emits null for
 * NaN/Inf, so a raw non-finite literal (or a null where a metric
 * belongs) fails the check. Exits non-zero with a diagnostic on the
 * first violation.
 */

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "core/json.hh"

using namespace microscale;

namespace
{

[[noreturn]] void
die(const std::string &what)
{
    std::cerr << "json_check: " << what << "\n";
    std::exit(1);
}

/** --<block> requires the block on every point, or on at least one. */
struct BlockFlag
{
    const char *block;
    bool everyPoint;
};

constexpr BlockFlag kBlockFlags[] = {
    {"elastic", true},      {"overload", false}, {"trace", true},
    {"grayfail", true},     {"scaleout", true},  {"replication", false},
    {"fanout", true},
};

/**
 * Reject any non-finite number anywhere in the document. The writer
 * turns NaN/Inf into null, and the parser accepts 1e999 as infinity;
 * either way a non-finite value means a metric pipeline is broken.
 */
void
rejectNonFinite(const std::string &path, const core::JsonValue &v)
{
    switch (v.kind) {
    case core::JsonValue::Kind::Number:
        if (!std::isfinite(v.numberValue))
            die(path + ": non-finite number in document");
        break;
    case core::JsonValue::Kind::Object:
        for (const auto &[key, member] : v.members)
            rejectNonFinite(path, member);
        break;
    case core::JsonValue::Kind::Array:
        for (const core::JsonValue &e : v.elements)
            rejectNonFinite(path, e);
        break;
    default:
        break;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    int arg = 1;
    std::vector<const BlockFlag *> required;
    while (arg < argc) {
        const BlockFlag *flag = nullptr;
        for (const BlockFlag &f : kBlockFlags) {
            if (argv[arg] == "--" + std::string(f.block))
                flag = &f;
        }
        if (!flag)
            break;
        required.push_back(flag);
        ++arg;
    }
    if (argc - arg < 2)
        die("usage: json_check [--elastic] [--overload] [--trace] "
            "[--grayfail] [--scaleout] [--replication] [--fanout] "
            "FILE MIN_POINTS [LABEL...]");
    const std::string path = argv[arg++];
    const unsigned long min_points = std::stoul(argv[arg++]);

    std::ifstream is(path);
    if (!is)
        die("cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();

    core::JsonValue v;
    try {
        v = core::parseJson(buf.str());
    } catch (const std::exception &e) {
        die(path + ": " + e.what());
    }

    if (!v.isObject())
        die(path + ": top level is not an object");
    for (const char *key : {"artifact", "caption", "machine"}) {
        const core::JsonValue *s = v.find(key);
        if (!s || !s->isString() || s->stringValue.empty())
            die(path + ": missing or empty '" + key + "'");
    }
    const core::JsonValue *schema = v.find("schema_version");
    if (!schema || !schema->isNumber())
        die(path + ": missing 'schema_version'");
    if (schema->numberValue != benchx::kBenchSchemaVersion) {
        die(path + ": schema_version " +
            std::to_string(schema->numberValue) + " != expected " +
            std::to_string(benchx::kBenchSchemaVersion));
    }
    const core::JsonValue *jobs = v.find("jobs");
    if (!jobs || !jobs->isNumber() || jobs->numberValue < 1)
        die(path + ": missing or bad 'jobs'");
    // Schema v3 speed stamps: every artifact reports how long it took
    // and how many engine events it processed.
    const core::JsonValue *wall = v.find("wall_seconds");
    if (!wall || !wall->isNumber() || !std::isfinite(wall->numberValue) ||
        wall->numberValue < 0)
        die(path + ": missing or bad 'wall_seconds'");
    const core::JsonValue *events = v.find("events_processed");
    if (!events || !events->isNumber() ||
        !std::isfinite(events->numberValue) || events->numberValue < 0)
        die(path + ": missing or bad 'events_processed'");

    const core::JsonValue *points = v.find("points");
    if (!points || !points->isArray())
        die(path + ": missing 'points' array");
    if (points->elements.size() < min_points) {
        die(path + ": expected >= " + std::to_string(min_points) +
            " points, got " + std::to_string(points->elements.size()));
    }
    std::vector<bool> seen(required.size(), false);
    for (const core::JsonValue &p : points->elements) {
        const core::JsonValue *label = p.find("label");
        if (!label || !label->isString() || label->stringValue.empty())
            die(path + ": point without a label");
        const std::string where =
            path + ": point '" + label->stringValue + "'";
        // A failed sweep point carries an "error" instead of a result;
        // an artifact with one is never valid.
        if (const core::JsonValue *err = p.find("error"))
            die(where + " failed: " +
                (err->isString() ? err->stringValue : "unknown error"));
        const core::JsonValue *result = p.find("result");
        if (!result || !result->isObject())
            die(where + " without a result");
        const core::JsonValue *tput = result->find("throughput_rps");
        if (!tput || !tput->isNumber() || !(tput->numberValue > 0))
            die(where + " without a positive throughput_rps");
        if (const std::string bad = core::checkResultJson(*result);
            !bad.empty())
            die(where + " " + bad);
        for (std::size_t i = 0; i < required.size(); ++i) {
            const std::string block = required[i]->block;
            const core::JsonValue *b = result->find(block);
            if (!b && required[i]->everyPoint)
                die(where + " lacks the " + block + " block (--" + block +
                    ")");
            seen[i] = seen[i] || b != nullptr;
            if (b && block == "replication" &&
                b->at("consistency_checked").numberValue != 1.0)
                die(where + " replication: consistency sweep did not "
                            "run (--replication)");
        }
    }
    for (std::size_t i = 0; i < required.size(); ++i) {
        const std::string block = required[i]->block;
        if (!seen[i])
            die(path + ": no point carries the " + block + " block (--" +
                block + ")");
    }

    rejectNonFinite(path, v);

    const core::JsonValue *tables = v.find("tables");
    if (!tables || !tables->isArray() || tables->elements.empty())
        die(path + ": missing or empty 'tables' array");

    for (int i = arg; i < argc; ++i) {
        const std::string want = argv[i];
        bool found = false;
        for (const core::JsonValue &p : points->elements) {
            if (p.at("label").stringValue == want) {
                found = true;
                break;
            }
        }
        if (!found)
            die(path + ": no point labeled '" + want + "'");
    }

    std::cout << "json_check: " << path << " ok ("
              << points->elements.size() << " points, "
              << tables->elements.size() << " tables)\n";
    return 0;
}
