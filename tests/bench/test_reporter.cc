/**
 * @file
 * Round-trip test for the bench reporting layer: a SeriesReporter must
 * emit a BENCH_<stem>.json that core::parseJson accepts and that
 * carries the recorded points and tables.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "base/table.hh"
#include "common.hh"
#include "core/json.hh"

namespace microscale
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

TEST(BenchReporter, EmitsParsableJsonWithPointsAndTables)
{
    const std::string dir = ::testing::TempDir();
    ASSERT_EQ(setenv("MICROSCALE_BENCH_OUT_DIR", dir.c_str(), 1), 0);

    {
        benchx::SeriesReporter rep("TEST-1", "test_reporter",
                                   "reporter round trip",
                                   core::ExperimentConfig{});
        core::RunResult a;
        a.throughputRps = 1234.5;
        a.latency.p99Ms = 42.0;
        a.eventsProcessed = 1000;
        core::RunResult b;
        b.throughputRps = 2469.0;
        b.latency.p99Ms = 21.0;
        b.eventsProcessed = 234;
        rep.add("point/one", a);
        rep.add("point \"two\"", b);

        TextTable t({"col a", "col b"});
        t.row().cell("x").cell(1.5, 1);
        t.row().cell("y").cell(2.5, 1);
        rep.table(t, "a stored table");
        rep.finish();
    }
    ASSERT_EQ(unsetenv("MICROSCALE_BENCH_OUT_DIR"), 0);

    const std::string path = dir + "/BENCH_test_reporter.json";
    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty()) << path;

    const core::JsonValue v = core::parseJson(text);
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("artifact").stringValue, "TEST-1");
    EXPECT_EQ(v.at("caption").stringValue, "reporter round trip");
    // Every artifact names the machine it simulated (json_check
    // rejects an empty one).
    EXPECT_FALSE(v.at("machine").stringValue.empty());
    ASSERT_TRUE(v.at("jobs").isNumber());
    EXPECT_GE(v.at("jobs").numberValue, 1.0);

    // Schema v3 speed stamps: elapsed wall clock plus the engine
    // events summed over every recorded point.
    EXPECT_DOUBLE_EQ(v.at("schema_version").numberValue,
                     benchx::kBenchSchemaVersion);
    ASSERT_TRUE(v.at("wall_seconds").isNumber());
    EXPECT_GE(v.at("wall_seconds").numberValue, 0.0);
    ASSERT_TRUE(v.at("events_processed").isNumber());
    EXPECT_DOUBLE_EQ(v.at("events_processed").numberValue, 1234.0);

    const core::JsonValue &points = v.at("points");
    ASSERT_TRUE(points.isArray());
    ASSERT_EQ(points.elements.size(), 2u);
    EXPECT_EQ(points.elements[0].at("label").stringValue, "point/one");
    EXPECT_EQ(points.elements[1].at("label").stringValue,
              "point \"two\"");
    EXPECT_DOUBLE_EQ(
        points.elements[0].at("result").at("throughput_rps").numberValue,
        1234.5);
    EXPECT_DOUBLE_EQ(points.elements[1]
                         .at("result")
                         .at("latency")
                         .at("p99_ms")
                         .numberValue,
                     21.0);

    const core::JsonValue &tables = v.at("tables");
    ASSERT_TRUE(tables.isArray());
    ASSERT_EQ(tables.elements.size(), 1u);
    const core::JsonValue &table = tables.elements[0];
    EXPECT_EQ(table.at("caption").stringValue, "a stored table");
    ASSERT_EQ(table.at("headers").elements.size(), 2u);
    EXPECT_EQ(table.at("headers").elements[0].stringValue, "col a");
    ASSERT_EQ(table.at("rows").elements.size(), 2u);
    EXPECT_EQ(table.at("rows").elements[0].elements[0].stringValue, "x");
    EXPECT_EQ(table.at("rows").elements[1].elements[1].stringValue,
              "2.5");
}

TEST(BenchReporter, FailedPointsCarryErrorField)
{
    const std::string dir = ::testing::TempDir();
    ASSERT_EQ(setenv("MICROSCALE_BENCH_OUT_DIR", dir.c_str(), 1), 0);

    {
        benchx::SeriesReporter rep("TEST-2", "test_reporter_err",
                                   "error round trip",
                                   core::ExperimentConfig{});
        core::RunResult ok;
        ok.throughputRps = 10.0;
        rep.add("good", ok);
        rep.addError("bad", "worker died: \"oops\"");
        rep.addError("worse", "");
        rep.finish();
    }
    ASSERT_EQ(unsetenv("MICROSCALE_BENCH_OUT_DIR"), 0);

    const std::string path = dir + "/BENCH_test_reporter_err.json";
    const core::JsonValue v = core::parseJson(slurp(path));
    const core::JsonValue &points = v.at("points");
    ASSERT_EQ(points.elements.size(), 3u);

    // The good point has a result and no error.
    EXPECT_EQ(points.elements[0].find("error"), nullptr);
    EXPECT_TRUE(points.elements[0].at("result").isObject());

    // Failed points carry only label + error (no result to trust).
    EXPECT_EQ(points.elements[1].at("label").stringValue, "bad");
    EXPECT_EQ(points.elements[1].at("error").stringValue,
              "worker died: \"oops\"");
    EXPECT_EQ(points.elements[1].find("result"), nullptr);
    // An empty message is normalized so json_check can always print it.
    EXPECT_EQ(points.elements[2].at("error").stringValue,
              "unknown error");
}

TEST(BenchReporter, ResilienceBlockOnlyWhenActive)
{
    core::RunResult healthy;
    healthy.throughputRps = 5.0;
    const std::string plain = core::toJson(healthy);
    EXPECT_EQ(plain.find("\"resilience\""), std::string::npos);
    EXPECT_EQ(plain.find("\"unavailable\""), std::string::npos);

    core::RunResult chaotic = healthy;
    chaotic.resilience.active = true;
    chaotic.resilience.goodputRps = 4.5;
    chaotic.resilience.timeoutCount = 7;
    const std::string rich = core::toJson(chaotic);
    const core::JsonValue v = core::parseJson(rich);
    EXPECT_DOUBLE_EQ(v.at("resilience").at("goodput_rps").numberValue,
                     4.5);
    EXPECT_DOUBLE_EQ(v.at("resilience").at("timeout").numberValue, 7.0);
}

TEST(BenchReporter, OutDirFallsBackToCwd)
{
    ASSERT_EQ(unsetenv("MICROSCALE_BENCH_OUT_DIR"), 0);
    EXPECT_EQ(benchx::outDir(), ".");
}

} // namespace
} // namespace microscale
