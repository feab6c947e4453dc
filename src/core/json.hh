/**
 * @file
 * JSON export of experiment results, for scripting and plotting
 * pipelines (msim --json, notebooks, CI dashboards).
 */

#ifndef MICROSCALE_CORE_JSON_HH
#define MICROSCALE_CORE_JSON_HH

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hh"

namespace microscale::core
{

/**
 * Serialize a RunResult as a single JSON object: headline metrics,
 * per-op latency, per-service counters, scheduler stats, the per-op
 * breakdowns and one block per active layer. Deterministic key order
 * (maps are sorted). json.cc's describe() lists every field once, for
 * this writer and for checkResultJson.
 */
void writeJson(std::ostream &os, const RunResult &result);

/** Convenience: writeJson into a string. */
std::string toJson(const RunResult &result);

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view s);

/**
 * A parsed JSON document node, for validating and consuming the
 * harness's own emissions (round-trip tests, bench_smoke checks).
 * Object member order is preserved.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object
    std::vector<JsonValue> elements;                        ///< Array

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member access; throws std::out_of_range when absent. */
    const JsonValue &at(const std::string &key) const;
};

/**
 * Validate one parsed RunResult document against describe(): every
 * field the writer would write for the blocks the document carries is
 * present, numeric and finite (strings non-empty) and within its
 * bound, and the cross-field relations hold (trace attribution sums,
 * quorum sizes, zero lost acked writes, hedge counts, ...). Returns ""
 * or the first violation as "<block>.<key>: <what>".
 */
std::string checkResultJson(const JsonValue &result);

/**
 * Parse a complete JSON document (trailing whitespace allowed).
 * Throws std::runtime_error with a position message on malformed
 * input.
 */
JsonValue parseJson(std::string_view text);

} // namespace microscale::core

#endif // MICROSCALE_CORE_JSON_HH
