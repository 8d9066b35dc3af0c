/**
 * @file
 * Tests of simbench: quantiles and their sample counts,
 * pass aggregation, the window series, the paper-gap arithmetic on
 * hand-computed inputs, --seed plumbing down to the generated stream,
 * and a smoke run of every workload in every mode whose metric names
 * must match BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "bench_stats.hh"
#include "cells.hh"
#include "bench.hh"
#include "obs/json.hh"

using namespace simbench;

namespace {

TEST(Quantile, MedianAndCounts)
{
    Quantile q = quantile({5, 1, 4, 2, 3}, 0.5);
    EXPECT_DOUBLE_EQ(q.value, 3.0);
    EXPECT_EQ(q.samples, 5u);
    EXPECT_EQ(q.beyond, 2u);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Quantile, InterpolatesLikePythonInclusive)
{
    std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    // statistics.quantiles(range(1, 11), n=4, method="inclusive")
    EXPECT_DOUBLE_EQ(quantile(v, 0.25).value, 3.25);
    EXPECT_DOUBLE_EQ(quantile(v, 0.75).value, 7.75);
    Quantile p90 = quantile(v, 0.9);
    EXPECT_DOUBLE_EQ(p90.value, 9.1);
    EXPECT_EQ(p90.samples, 10u);
    EXPECT_EQ(p90.beyond, 1u);
}

TEST(Quantile, EdgesAndEmpty)
{
    EXPECT_DOUBLE_EQ(quantile({7}, 0.9).value, 7.0);
    EXPECT_EQ(quantile({7}, 0.9).beyond, 0u);
    Quantile e = quantile({}, 0.5);
    EXPECT_TRUE(std::isnan(e.value));
    EXPECT_EQ(e.samples, 0u);
}

TEST(Passes, EachCellKeepsItsSlowestRun)
{
    CellFloor f;
    f.add(0, 1.0, 0.1, {10, 20});
    f.add(1, 4.0, 0.5, {5});
    f.add(0, 3.0, 0.05, {30, 15});  // a slower pass of cell 0
    f.add(1, 2.0, 0.2, {7});
    EXPECT_DOUBLE_EQ(f.cpuSeconds(), 3.0 + 4.0);
    EXPECT_DOUBLE_EQ(f.setupSeconds(), 0.1 + 0.5);
    EXPECT_EQ(f.windowNs(), (std::vector<double>{30, 20, 7}));
}

TEST(Windows, CloseAtFirstReadingPastTheSize)
{
    WindowSeries w(1000);
    w.start(0);
    w.advance(600, 100);
    EXPECT_TRUE(w.nsPerAccess().empty());
    w.advance(650, 2500);  // 1250 accesses in 2500 ns
    ASSERT_EQ(w.nsPerAccess().size(), 1u);
    EXPECT_DOUBLE_EQ(w.nsPerAccess()[0], 2.0);
    w.advance(999, 9999);  // trailing partial window: dropped
    EXPECT_EQ(w.nsPerAccess().size(), 1u);
}

TEST(Gaps, HandComputedSpeedup)
{
    tps::sim::SimStats thp, l2, l1, off, tps;
    thp.cycles = 1000;
    thp.walkCycles = 100;
    thp.l1TlbMisses = 50;
    thp.walkMemRefs = 40;
    l2.cycles = 950;
    l1.cycles = 900;
    off.cycles = 1200;
    off.walkCycles = 400;
    // savable = 200/300; T_PW = 66.67, T_L1 = 50, T_ideal = 883.33.
    tps.l1TlbMisses = 0;
    tps.walkMemRefs = 0;
    SpeedupCells c{&thp, &l2, &l1, &off, &tps};
    EXPECT_NEAR(tpsSpeedupPercent(c), 100.0 * (1000.0 / (2650.0 / 3) - 1),
                1e-9);
    // Half the L1 misses and a quarter of the walk refs remain:
    // T' = 883.33 + 25 + 16.67 = 925.
    tps.l1TlbMisses = 25;
    tps.walkMemRefs = 10;
    EXPECT_NEAR(tpsSpeedupPercent(c), 100.0 * (1000.0 / 925.0 - 1), 1e-9);
    EXPECT_DOUBLE_EQ(gapPp(6.0, 15.7), 9.7);
    EXPECT_DOUBLE_EQ(gapPp(21.6, 15.7), 21.6 - 15.7);
    EXPECT_DOUBLE_EQ(elimPercent(100, 2), 98.0);
    EXPECT_DOUBLE_EQ(elimPercent(100, 150), 0.0);
    EXPECT_DOUBLE_EQ(elimPercent(0, 0), 0.0);
}

TEST(Seed, ParsedAndValidated)
{
    BenchOptions o = parseArgs({"--workload", "first-touch", "--seed", "7",
                                 "--seconds", "3", "--trace", "1"});
    EXPECT_EQ(o.workload, "first-touch");
    EXPECT_EQ(o.seed, 7u);
    EXPECT_DOUBLE_EQ(o.seconds, 3.0);
    EXPECT_TRUE(o.trace);
    for (std::vector<std::string> bad :
         {std::vector<std::string>{"--workload", "nope"},
          {"--workload", "first-touch", "--seed", "-1"},
          {"--workload", "first-touch", "--seed"},
          {"--workload", "first-touch", "--trace", "2"},
          {"--workload", "first-touch", "--seconds", "0"},
          {"--seed", "1"},
          {"--workload", "first-touch", "--bogus"}})
        EXPECT_THROW(parseArgs(bad), std::invalid_argument);
}

TEST(Seed, ReachesTheGeneratedStream)
{
    EXPECT_EQ(workloadSeed(1234, 0), 1234u);
    EXPECT_NE(workloadSeed(1234, 1), workloadSeed(1234, 2));

    BenchWorkload w = benchWorkload("steady-translate", true);
    const CellSpec &cell = w.cells[0];
    std::string lib =
        tps::core::runExperiment(cell.opts).toJson().dump();
    EXPECT_EQ(runCell(cell, 0).stats.toJson().dump(), lib);
    std::string s1 = runCell(cell, 1).stats.toJson().dump();
    EXPECT_NE(s1, lib);
    EXPECT_EQ(runCell(cell, 1).stats.toJson().dump(), s1);
}

TEST(Replay, CountsMatchTheEngine)
{
    for (const char *name : {"steady-translate", "smt-observed"}) {
        BenchWorkload w = benchWorkload(name, true);
        const CellSpec &cell = w.cells.back();
        EXPECT_EQ(replayCell(cell, 3), engineCounts(runCell(cell, 3)))
            << name;
    }
}

/** Metric names BENCHMARK.json lists under @p key. */
std::set<std::string>
declared(const std::string &key)
{
    tps::obs::Json b =
        tps::obs::readJsonFile(std::string(SIMBENCH_DIR) + "/../BENCHMARK.json");
    std::set<std::string> out;
    const tps::obs::Json &list = b.at(key);
    for (size_t i = 0; i < list.size(); ++i)
        out.insert(list.at(i).at("name").asString());
    return out;
}

std::set<std::string>
names(const RunResult &r)
{
    std::set<std::string> out;
    for (const Metric &m : r.metrics)
        out.insert(m.name);
    return out;
}

TEST(Smoke, EveryWorkloadInEveryMode)
{
    std::set<std::string> e2e = declared("end_to_end");
    std::set<std::string> layers = declared("per_layer");
    for (const std::string &w : benchWorkloadNames()) {
        BenchOptions o;
        o.workload = w;
        o.smoke = true;
        o.seconds = 1;
        o.seed = 5;
        RunResult timed = runBenchmark(o);
        EXPECT_TRUE(timed.correct) << w;
        EXPECT_GT(timed.attempted, 0u);
        EXPECT_EQ(timed.failed, 0u);
        EXPECT_EQ(names(timed), e2e) << w;
        for (const Metric &m : timed.metrics)
            EXPECT_GT(m.value, 0.0) << w << " " << m.name;

        o.trace = true;
        RunResult traced = runBenchmark(o);
        EXPECT_TRUE(traced.correct) << w;
        EXPECT_EQ(names(traced), layers) << w;
        for (const Metric &m : traced.metrics)
            EXPECT_TRUE(std::isfinite(m.value)) << w << " " << m.name;

        o.trace = false;
        o.check = true;
        RunResult check = runBenchmark(o);
        EXPECT_TRUE(check.correct) << w;
        EXPECT_EQ(check.failed, 0u);
        EXPECT_EQ(check.attempted, 2 * benchWorkload(w, true).cells.size());
    }
}

TEST(Result, OneLineJsonWithTheContractKeys)
{
    RunResult r;
    r.attempted = 3;
    r.metrics = {{"setup_s", 0.125, "s"}};
    EXPECT_EQ(resultJson(r),
              "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
              "{\"setup_s\":{\"value\":0.125,\"unit\":\"s\"}}}");
}

} // namespace
