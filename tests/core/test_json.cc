/**
 * @file
 * Tests for the JSON export of RunResult and its checker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/every_block.hh"
#include "core/json.hh"

#ifndef MICROSCALE_GOLDEN_DIR
#error "MICROSCALE_GOLDEN_DIR must be defined by the build"
#endif

namespace microscale::core
{
namespace
{

ExperimentConfig
fastConfig()
{
    ExperimentConfig c;
    c.machine = topo::small8();
    c.app.store.categories = 4;
    c.app.store.productsPerCategory = 10;
    c.app.store.users = 20;
    c.sizing.webui = {1, 8};
    c.sizing.auth = {1, 4};
    c.sizing.persistence = {1, 8};
    c.sizing.recommender = {1, 2};
    c.sizing.image = {1, 8};
    c.sizing.registry = {1, 1};
    c.load.users = 40;
    c.load.meanThink = 50 * kMillisecond;
    c.warmup = 150 * kMillisecond;
    c.measure = 300 * kMillisecond;
    return c;
}

/** Count balanced braces/brackets and validate basic wellformedness. */
bool
balanced(const std::string &s)
{
    int braces = 0, brackets = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '"' && (i == 0 || s[i - 1] != '\\'))
            in_string = !in_string;
        if (in_string)
            continue;
        if (c == '{')
            ++braces;
        if (c == '}')
            --braces;
        if (c == '[')
            ++brackets;
        if (c == ']')
            --brackets;
        if (braces < 0 || brackets < 0)
            return false;
    }
    return braces == 0 && brackets == 0 && !in_string;
}

TEST(Json, WellFormedAndComplete)
{
    const RunResult r = runExperiment(fastConfig());
    const std::string j = toJson(r);
    EXPECT_TRUE(balanced(j)) << j.substr(0, 400);
    for (const char *key :
         {"\"throughput_rps\"", "\"latency\"", "\"per_op\"",
          "\"services\"", "\"total\"", "\"sched\"", "\"breakdown\"",
          "\"webui\"", "\"placement\"", "\"p99_ms\"",
          "\"context_switches\""}) {
        EXPECT_NE(j.find(key), std::string::npos) << key;
    }
    // No trailing commas (",}" or ",]") anywhere.
    EXPECT_EQ(j.find(",}"), std::string::npos);
    EXPECT_EQ(j.find(",]"), std::string::npos);
    EXPECT_EQ(checkResultJson(parseJson(j)), "");
}

TEST(Json, DeterministicForSameRun)
{
    const RunResult r = runExperiment(fastConfig());
    EXPECT_EQ(toJson(r), toJson(r));
}

TEST(Json, ReflectsResultValues)
{
    RunResult r = runExperiment(fastConfig());
    const std::string j = toJson(r);
    // The throughput value appears verbatim (setprecision(10)).
    std::ostringstream expect;
    expect << std::setprecision(10) << r.throughputRps;
    EXPECT_NE(j.find(expect.str()), std::string::npos);
}

TEST(Json, ParseRoundTripsRunResult)
{
    const RunResult r = runExperiment(fastConfig());
    const JsonValue v = parseJson(toJson(r));
    ASSERT_TRUE(v.isObject());
    const JsonValue &tput = v.at("throughput_rps");
    ASSERT_TRUE(tput.isNumber());
    // The writer emits 10 significant digits.
    EXPECT_NEAR(tput.numberValue, r.throughputRps,
                1e-9 * std::abs(r.throughputRps) + 1e-12);
    const JsonValue &p99 = v.at("latency").at("p99_ms");
    ASSERT_TRUE(p99.isNumber());
    EXPECT_NEAR(p99.numberValue, r.latency.p99Ms,
                1e-9 * std::abs(r.latency.p99Ms) + 1e-12);
    // Service map keys survive the trip.
    const JsonValue &services = v.at("services");
    ASSERT_TRUE(services.isObject());
    EXPECT_NE(services.find("webui"), nullptr);
}

TEST(Json, ParseHandlesEscapesAndLiterals)
{
    const JsonValue v = parseJson(
        "{\"s\": \"a\\\"b\\\\c\\n\", \"t\": true, \"f\": false,"
        " \"n\": null, \"a\": [1, -2.5, 3e2]}");
    EXPECT_EQ(v.at("s").stringValue, "a\"b\\c\n");
    EXPECT_TRUE(v.at("t").boolValue);
    EXPECT_FALSE(v.at("f").boolValue);
    EXPECT_EQ(v.at("n").kind, JsonValue::Kind::Null);
    ASSERT_EQ(v.at("a").elements.size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").elements[1].numberValue, -2.5);
    EXPECT_DOUBLE_EQ(v.at("a").elements[2].numberValue, 300.0);
}

TEST(Json, NonFiniteNumbersEmitNull)
{
    // A broken metric pipeline (0/0, log of 0) must not corrupt the
    // document: the writer emits null for NaN/Inf, never the raw
    // "nan"/"inf" literals no parser accepts.
    RunResult r;
    r.throughputRps = std::nan("");
    r.latency.meanMs = std::numeric_limits<double>::infinity();
    r.latency.p50Ms = -std::numeric_limits<double>::infinity();
    const std::string j = toJson(r);
    EXPECT_EQ(j.find("nan"), std::string::npos);
    EXPECT_EQ(j.find("inf"), std::string::npos);
    const JsonValue v = parseJson(j);
    EXPECT_EQ(v.at("throughput_rps").kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.at("latency").at("mean_ms").kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.at("latency").at("p50_ms").kind, JsonValue::Kind::Null);
    // Finite neighbors are untouched.
    EXPECT_TRUE(v.at("latency").at("p99_ms").isNumber());
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": 1,}"), std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
}

TEST(Json, EscapeProducesValidStrings)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    const JsonValue v =
        parseJson("\"" + jsonEscape("mix: \"q\" \\ \n\t\x01") + "\"");
    EXPECT_EQ(v.stringValue, "mix: \"q\" \\ \n\t\x01");
}

/** The member at a dotted key path; throws when a key is absent. */
JsonValue &
member(JsonValue &doc, const std::string &dotted)
{
    JsonValue *at = &doc;
    std::istringstream keys(dotted);
    for (std::string key; std::getline(keys, key, '.');) {
        auto it = std::find_if(at->members.begin(), at->members.end(),
                               [&](const auto &m) { return m.first == key; });
        if (it == at->members.end())
            throw std::out_of_range("no member " + dotted);
        at = &it->second;
    }
    return *at;
}

/** Remove the member at a dotted key path. */
void
erase(JsonValue &doc, const std::string &dotted)
{
    const std::size_t dot = dotted.rfind('.');
    JsonValue &parent =
        dot == std::string::npos ? doc : member(doc, dotted.substr(0, dot));
    const std::string key = dotted.substr(dot + 1);
    std::erase_if(parent.members,
                  [&](const auto &m) { return m.first == key; });
}

/** The every-block document with its one NaN made finite. */
JsonValue
everyBlockDoc()
{
    RunResult r = everyBlockResult();
    r.total.mips = 2100.0;
    return parseJson(toJson(r));
}

/** The checker's verdict on the every-block document after `edit`. */
template <class Edit>
std::string
verdictAfter(Edit &&edit)
{
    JsonValue doc = everyBlockDoc();
    edit(doc);
    return checkResultJson(doc);
}

/** Set the number at `key` to `value` and return the verdict. */
std::string
verdictWith(const std::string &key, double value)
{
    return verdictAfter(
        [&](JsonValue &doc) { member(doc, key).numberValue = value; });
}

/** The verdict names `key` (as block.key) before its reason. */
::testing::AssertionResult
names(const std::string &verdict, const std::string &key)
{
    if (verdict.rfind(key + ":", 0) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "verdict '" << verdict << "' does not name " << key;
}

TEST(ResultCheck, AcceptsEveryGolden)
{
    for (const char *name :
         {"fig01_closed_loop.json", "fig05_placement.json",
          "fig12_resilience.json", "fig13_elastic.json",
          "fig14_overload.json", "fig15_trace.json", "fig17_datatier.json",
          "fig19_socialnet.json", "overload_shedding.json",
          "traced_retries.json"}) {
        std::ifstream in(std::string(MICROSCALE_GOLDEN_DIR) + "/" + name);
        ASSERT_TRUE(in.good()) << name;
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_EQ(checkResultJson(parseJson(text.str())), "") << name;
    }
}

TEST(ResultCheck, AcceptsEveryBlockAndRejectsItsNull)
{
    EXPECT_EQ(checkResultJson(everyBlockDoc()), "");
    // The writer's golden keeps the NaN, written as null.
    EXPECT_TRUE(names(checkResultJson(parseJson(toJson(everyBlockResult()))),
                      "total.mips"));
    EXPECT_EQ(checkResultJson(parseJson("[]")), "result is not an object");
}

TEST(ResultCheck, RejectsEachBoundViolation)
{
    struct Case
    {
        const char *key;
        double value;
        const char *reason;
    };
    const double inf = std::numeric_limits<double>::infinity();
    for (const Case &c : {
             Case{"resilience.retries", -1.0, "is negative"},
             Case{"per_op.home.p99_ms", -0.5, "is negative"},
             Case{"trace.unattributed_ms", inf, "not finite"},
             Case{"scaleout.fabric_share", 1.5, "outside [0, 1]"},
             Case{"services.webui.kernel_share", -0.1, "outside [0, 1]"},
             Case{"overload.codel", 2.0, "not 0 or 1"},
             Case{"replication.consistency_checked", 0.5, "not 0 or 1"},
             Case{"fanout.depth", 0.0, "below 1"},
             Case{"scaleout.nodes", 0.0, "below 1"},
         }) {
        const std::string verdict = verdictWith(c.key, c.value);
        EXPECT_TRUE(names(verdict, c.key));
        EXPECT_NE(verdict.find(c.reason), std::string::npos) << verdict;
    }
    // The one Finite field may go negative; the residue then has to
    // come back out of a component for the sum to hold.
    EXPECT_EQ(verdictAfter([](JsonValue &doc) {
                  member(doc, "trace.unattributed_ms").numberValue -= 0.05;
                  member(doc, "trace.attribution.auth.compute_ms")
                      .numberValue += 0.05;
              }),
              "");
}

TEST(ResultCheck, RejectsNullMissingAndEmpty)
{
    EXPECT_TRUE(names(verdictAfter([](JsonValue &doc) {
                          member(doc, "latency.p50_ms").kind =
                              JsonValue::Kind::Null;
                      }),
                      "latency.p50_ms"));
    EXPECT_TRUE(names(verdictAfter([](JsonValue &doc) {
                          erase(doc, "trace.attribution.webui.queue_ms");
                      }),
                      "trace.attribution.webui.queue_ms"));
    EXPECT_TRUE(names(verdictAfter([](JsonValue &doc) {
                          erase(doc, "sched");
                      }),
                      "sched"));
    EXPECT_TRUE(names(verdictAfter([](JsonValue &doc) {
                          member(doc, "elastic.schedule").stringValue = "";
                      }),
                      "elastic.schedule"));
    EXPECT_TRUE(names(verdictAfter([](JsonValue &doc) {
                          member(doc, "elastic.peak_replicas.webui").kind =
                              JsonValue::Kind::String;
                      }),
                      "elastic.peak_replicas.webui"));
}

TEST(ResultCheck, RejectsEachBrokenRelation)
{
    struct Case
    {
        const char *key;
        double value;
        const char *named;
    };
    for (const Case &c : {
             Case{"trace.attribution.auth.compute_ms", 5.0,
                  "trace.attribution"},
             Case{"grayfail.ejected_at_end", 6.0, "grayfail.ejected_at_end"},
             Case{"scaleout.active_nodes_end", 5.0,
                  "scaleout.active_nodes_end"},
             Case{"scaleout.cold_provisions", 2.0,
                  "scaleout.nodes_provisioned"},
             Case{"replication.factor", 1.0, "replication.factor"},
             Case{"replication.write_quorum", 4.0, "replication.write_quorum"},
             Case{"replication.read_quorum", 4.0, "replication.read_quorum"},
             Case{"replication.hints_replayed", 11.0,
                  "replication.hints_replayed"},
             Case{"replication.rebalances_completed", 3.0,
                  "replication.rebalances_completed"},
             Case{"replication.lost_acked_writes", 1.0,
                  "replication.lost_acked_writes"},
             Case{"replication.stale_quorum_reads", 1.0,
                  "replication.stale_quorum_reads"},
             Case{"fanout.hedged", 0.0, "fanout.hedges_launched"},
             Case{"fanout.hedge_wins", 51.0, "fanout.hedge_wins"},
             Case{"fanout.hedges_cancelled", 51.0, "fanout.hedges_cancelled"},
         }) {
        EXPECT_TRUE(names(verdictWith(c.key, c.value), c.named)) << c.key;
    }
}

TEST(ResultCheck, TracesAnalyzedNeverExceedSampledNorSampledSeen)
{
    EXPECT_TRUE(names(verdictWith("trace.traces_sampled", 401.0),
                      "trace.traces_sampled"));
    EXPECT_TRUE(names(verdictWith("trace.traces_analyzed", 201.0),
                      "trace.traces_analyzed"));
    // Equality is fine on both sides.
    EXPECT_EQ(verdictAfter([](JsonValue &doc) {
                  member(doc, "trace.traces_sampled").numberValue = 400.0;
                  member(doc, "trace.traces_analyzed").numberValue = 400.0;
              }),
              "");
}

TEST(ResultCheck, HedgeShareIsLaunchedOverFirstAttempts)
{
    EXPECT_TRUE(names(verdictWith("fanout.hedge_share", 0.0501),
                      "fanout.hedge_share"));
    EXPECT_EQ(verdictWith("fanout.hedge_share", 0.05 * (1 + 1e-9)), "");
    // No first attempts: the share must read 0.
    EXPECT_TRUE(names(verdictWith("fanout.first_attempts", 0.0),
                      "fanout.hedge_share"));
    EXPECT_EQ(verdictAfter([](JsonValue &doc) {
                  member(doc, "fanout.first_attempts").numberValue = 0.0;
                  member(doc, "fanout.hedge_share").numberValue = 0.0;
              }),
              "");
}

TEST(ResultCheck, ConditionalFieldsFollowTheDocumentsBlocks)
{
    // Each conditional field is required while its gating block is in
    // the document, and not once the block is gone.
    struct Case
    {
        const char *field;
        const char *gate;
    };
    for (const Case &c : {
             Case{"resilience.rejected", "overload"},
             Case{"breakdown.webui.home.ok", "resilience"},
             Case{"breakdown.auth.verify.unavailable", "resilience"},
             Case{"trace.attribution.auth.fabric_ms", "scaleout"},
         }) {
        EXPECT_TRUE(names(verdictAfter([&](JsonValue &doc) {
                              erase(doc, c.field);
                          }),
                          c.field));
        EXPECT_EQ(verdictAfter([&](JsonValue &doc) {
                      erase(doc, c.field);
                      erase(doc, c.gate);
                  }),
                  "")
            << c.field;
    }
}

} // namespace
} // namespace microscale::core
