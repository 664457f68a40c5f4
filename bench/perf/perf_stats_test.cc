// Pins the benchmark's statistics rules with fixed inputs.

#include <gtest/gtest.h>

#include "json.hh"
#include "stats.hh"

namespace {

using perf::Verdict;

TEST(PerfStats, MedianOfOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(perf::median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(perf::median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(perf::median({}), 0.0);
}

TEST(PerfStats, QuartilesMatchPythonStatisticsQuantiles)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    const auto q = perf::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    const auto q5 = perf::quartiles({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(q5.q1, 1.5);
    EXPECT_DOUBLE_EQ(q5.q3, 4.5);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    const auto q2 = perf::quartiles({2, 1});
    EXPECT_DOUBLE_EQ(q2.q1, 0.75);
    EXPECT_DOUBLE_EQ(q2.q3, 2.25);
    const auto one = perf::quartiles({7});
    EXPECT_DOUBLE_EQ(one.q1, 7.0);
    EXPECT_DOUBLE_EQ(one.q3, 7.0);
}

TEST(PerfStats, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(perf::percentile(v, 50), 50.0);
    EXPECT_DOUBLE_EQ(perf::percentile(v, 98), 98.0);
    EXPECT_DOUBLE_EQ(perf::percentile(v, 100), 100.0);
    EXPECT_DOUBLE_EQ(perf::percentile({5}, 70), 5.0);
}

TEST(PerfStats, TailPercentileKeepsTenSamplesBeyond)
{
    EXPECT_EQ(perf::tailPercentile(36), 70.0);   // 10 of 36 cells above.
    EXPECT_EQ(perf::tailPercentile(512), 98.0);  // 10 of 512 batches.
    EXPECT_EQ(perf::tailPercentile(10000), 99.9);
    EXPECT_EQ(perf::tailPercentile(20), 50.0);
    EXPECT_EQ(perf::tailPercentile(19), 0.0);    // Nothing qualifies.
}

TEST(PerfStats, ReconciliationSumsLayerCostTimesCalls)
{
    const std::vector<perf::LayerCost> layers = {
        {"workloads.next", 10.0, 1.0},
        {"os.pt_walk", 40.0, 0.5},
        {"os.daemon_wake", 1000.0, 0.001},
    };
    EXPECT_DOUBLE_EQ(perf::predictedNsPerAccess(layers), 31.0);
    EXPECT_DOUBLE_EQ(perf::unattributedPct(40.0, 31.0), 22.5);
    EXPECT_DOUBLE_EQ(perf::unattributedPct(25.0, 31.0), -24.0);
}

TEST(PerfStats, SelfTimeSubtractsTheUnionOfDirectChildren)
{
    std::vector<perf::Span> s(5);
    s[0] = {"replay", 0, 100, 0, -1, 1, 1};
    s[1] = {"a", 10, 30, 1, 0, 1, 1};
    s[2] = {"b", 20, 50, 2, 0, 1, 1};   // Overlaps a: counted once.
    s[3] = {"c", 90, 120, 3, 0, 1, 1};  // Clipped to the parent's end.
    s[4] = {"a.child", 15, 20, 4, 1, 1, 1};
    const auto self = perf::selfTimesNs(s);
    EXPECT_DOUBLE_EQ(self[0], 50.0); // 100 - [10,50] - [90,100]
    EXPECT_DOUBLE_EQ(self[1], 15.0);
    EXPECT_DOUBLE_EQ(self[3], 30.0);
    EXPECT_DOUBLE_EQ(self[4], 5.0);
}

TEST(PerfStats, VerdictImprovedNeedsNineTenthsOfPairsAndClearMargin)
{
    const std::vector<double> parent = {100, 101, 99, 100, 102,
                                        98,  100, 101, 99, 100};
    std::vector<double> change;
    for (double p : parent)
        change.push_back(p - 10);
    EXPECT_EQ(perf::verdict(parent, change, true, 0.1), Verdict::Improved);
    // Two lost pairs of ten: a gain that is not resolved.
    change[0] = 200;
    change[1] = 200;
    EXPECT_EQ(perf::verdict(parent, change, true, 0.1), Verdict::Same);
    // Higher-is-better flips the reading.
    std::vector<double> up;
    for (double p : parent)
        up.push_back(p + 10);
    EXPECT_EQ(perf::verdict(parent, up, false, 0.1), Verdict::Improved);
    EXPECT_EQ(perf::verdict(parent, up, true, 0.05), Verdict::Worse);
}

TEST(PerfStats, VerdictWorseOnlyBeyondTheBound)
{
    const std::vector<double> parent = {100, 101, 99, 100, 100};
    EXPECT_EQ(perf::verdict(parent, {105, 106, 104, 105, 105}, true, 0.1),
              Verdict::Same);
    EXPECT_EQ(perf::verdict(parent, {115, 116, 114, 115, 115}, true, 0.1),
              Verdict::Worse);
}

TEST(PerfStats, VerdictUnresolvedWhenParentSpreadExceedsBound)
{
    const std::vector<double> parent = {80, 90, 100, 110, 120};
    EXPECT_EQ(perf::verdict(parent, {85, 125, 95, 105, 130}, true, 0.1),
              Verdict::Unresolved);
    // Every change run beats every parent run: not worse, though the
    // margin is inside the parent's spread, so not a gain either.
    EXPECT_EQ(perf::verdict(parent, {78, 79, 77, 76, 75}, true, 0.1),
              Verdict::Same);
}

TEST(PerfJson, ParsesWhatTheBenchmarkWrites)
{
    const auto doc = perf::Json::parse(
        "{\"runs\": [{\"workload\": \"mcf-m5\", \"seed\": 7, \"ok\": true,"
        " \"metrics\": {\"setup_s\": {\"value\": " +
        perf::jsonNumber(0.125) + ", \"unit\": \"s\"}}, \"n\": null}]}");
    const auto &run = doc["runs"].array.at(0);
    EXPECT_EQ(run["workload"].string, "mcf-m5");
    EXPECT_DOUBLE_EQ(run["seed"].number, 7.0);
    EXPECT_TRUE(run["ok"].boolean);
    EXPECT_DOUBLE_EQ(run["metrics"]["setup_s"]["value"].number, 0.125);
    EXPECT_EQ(run["missing"].kind, perf::Json::Kind::Null);
    EXPECT_THROW(perf::Json::parse("{\"a\": 1} x"), std::runtime_error);
    EXPECT_THROW(perf::Json::parse("{\"a\": 1e}"), std::runtime_error);
    EXPECT_EQ(perf::Json::parse(perf::jsonQuote("a\"b\\c")).string,
              "a\"b\\c");
}

} // namespace
