/**
 * @file
 * tps-analyze unit tests: a hand-written event stream with totals,
 * per-page-size breakdown, top-N hot regions and histogram percentiles
 * all computed by hand, plus the trace <-> run-manifest join by
 * (cell label, seed) and its exact-miss-count reconciliation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "core/tps_system.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/trace_analyze.hh"
#include "util/sim_error.hh"

namespace tps::obs {
namespace {

/**
 * Hand-written stream.  Two VMAs; one warmup miss (excluded); seven
 * measured misses over three 4 KB regions and two page sizes:
 *
 *   region 0x10002000: 3 misses (page 2M)   <- hottest
 *   region 0x10000000: 2 misses (page 4K)   <- tie, lower vaddr
 *   region 0x10003000: 2 misses (page 2M)   <- tie, higher vaddr
 *
 * Miss times 12,14,20,21,22,30,34 after the Mark at t=10 give
 * interarrivals {2,2,6,1,1,8,4}; walk latencies {100,50}.
 */
std::vector<Event>
handTrace()
{
    std::vector<Event> e;
    // Setup (time 0): two VMAs.
    e.push_back({EventType::OsMap, 0, 0x10000000, 0x2000, 1});
    e.push_back({EventType::OsMap, 0, 0x10002000, 0x2000, 2});
    // Warmup activity: must not count toward measured totals.
    e.push_back({EventType::TlbMiss, 5, 0x10000000, 1, 12, 1, 999});
    e.push_back({EventType::Walk, 5, 0x10000000, 9, 0, 0, 12});
    e.push_back({EventType::Mark, 10, kMarkWarmupEnd});
    // Measured phase.
    e.push_back({EventType::TlbMiss, 12, 0x10000000, 1, 12, 1, 100});
    e.push_back({EventType::Walk, 12, 0x10000000, 4, 2, 0, 12});
    e.push_back({EventType::TlbMiss, 14, 0x10000010, 0, 12, 1, 8});
    e.push_back({EventType::TlbMiss, 20, 0x10002000, 1, 21, 2, 50});
    e.push_back({EventType::Walk, 20, 0x10002000, 3, 3, 0, 21});
    e.push_back({EventType::TlbMiss, 21, 0x10002800, 0, 21, 2, 8});
    e.push_back({EventType::TlbMiss, 22, 0x10002ff0, 0, 21, 2, 8});
    e.push_back({EventType::TlbMiss, 30, 0x10003000, 0, 21, 2, 8});
    e.push_back({EventType::TlbMiss, 34, 0x10003800, 0, 21, 2, 8});
    return e;
}

TraceCell
handCell()
{
    return {"gups/thp", 42, handTrace()};
}

TEST(Analyze, MeasuredTotals)
{
    CellAnalysis a = analyzeCell(handCell());
    EXPECT_EQ(a.label, "gups/thp");
    EXPECT_EQ(a.seed, 42u);
    EXPECT_EQ(a.tlbMisses, 7u);   // warmup miss excluded
    EXPECT_EQ(a.l2Hits, 5u);
    EXPECT_EQ(a.walks, 2u);
    EXPECT_EQ(a.walkEvents, 2u);
    EXPECT_EQ(a.walkMemRefs, 7u); // 4 + 3, warmup walk excluded
    EXPECT_EQ(a.walkFaults, 0u);
    EXPECT_EQ(a.accesses, 34u);
    EXPECT_EQ(a.osMaps, 2u);      // OS events count whole-run
}

TEST(Analyze, PerPageSizeBreakdown)
{
    CellAnalysis a = analyzeCell(handCell());
    ASSERT_EQ(a.perPageSize.size(), 2u);  // ascending pageBits
    EXPECT_EQ(a.perPageSize[0].pageBits, 12u);
    EXPECT_EQ(a.perPageSize[0].misses, 2u);
    EXPECT_EQ(a.perPageSize[0].walks, 1u);
    EXPECT_EQ(a.perPageSize[0].walkMemRefs, 4u);
    EXPECT_EQ(a.perPageSize[1].pageBits, 21u);
    EXPECT_EQ(a.perPageSize[1].misses, 5u);
    EXPECT_EQ(a.perPageSize[1].walks, 1u);
    EXPECT_EQ(a.perPageSize[1].walkMemRefs, 3u);
}

TEST(Analyze, PerVmaBreakdown)
{
    CellAnalysis a = analyzeCell(handCell());
    ASSERT_EQ(a.perVma.size(), 2u);
    EXPECT_EQ(a.perVma[0].vmaId, 1u);
    EXPECT_EQ(a.perVma[0].base, 0x10000000u);
    EXPECT_EQ(a.perVma[0].bytes, 0x2000u);
    EXPECT_EQ(a.perVma[0].misses, 2u);
    EXPECT_EQ(a.perVma[0].walks, 1u);
    EXPECT_EQ(a.perVma[1].vmaId, 2u);
    EXPECT_EQ(a.perVma[1].misses, 5u);
    EXPECT_EQ(a.perVma[1].walks, 1u);
}

TEST(Analyze, TopRegionsRankedWithVaddrTieBreak)
{
    CellAnalysis a = analyzeCell(handCell());
    ASSERT_EQ(a.hotRegions.size(), 3u);
    EXPECT_EQ(a.hotRegions[0].base, 0x10002000u);  // 3 misses
    EXPECT_EQ(a.hotRegions[0].misses, 3u);
    EXPECT_EQ(a.hotRegions[0].walks, 1u);
    EXPECT_EQ(a.hotRegions[1].base, 0x10000000u);  // 2 misses, lower va
    EXPECT_EQ(a.hotRegions[1].misses, 2u);
    EXPECT_EQ(a.hotRegions[2].base, 0x10003000u);  // 2 misses
    EXPECT_EQ(a.hotRegions[2].misses, 2u);
}

TEST(Analyze, HistogramPercentilesMatchHandComputation)
{
    CellAnalysis a = analyzeCell(handCell());

    // Interarrivals {2,2,6,1,1,8,4}: sorted 1,1,2,2,4,6,8.
    // p50 -> ceil(.5*7)=4th value = 2; p95/p99 -> 7th value = 8.
    EXPECT_EQ(a.missInterarrival.total(), 7u);
    EXPECT_EQ(a.missInterarrival.p50(), 2u);
    EXPECT_EQ(a.missInterarrival.p95(), 8u);
    EXPECT_EQ(a.missInterarrival.p99(), 8u);

    // Walk latencies {100, 50}: p50 -> 1st of sorted = 50, p95 -> 100.
    EXPECT_EQ(a.walkLatency.total(), 2u);
    EXPECT_EQ(a.walkLatency.p50(), 50u);
    EXPECT_EQ(a.walkLatency.p95(), 100u);

    // MMU-cache hit depths {2, 3}.
    EXPECT_EQ(a.walkHitDepth.total(), 2u);
    EXPECT_EQ(a.walkHitDepth.at(2), 1u);
    EXPECT_EQ(a.walkHitDepth.at(3), 1u);
}

TEST(Analyze, StreamWithoutMarkIsAnalyzedWhole)
{
    std::vector<Event> events;
    events.push_back({EventType::TlbMiss, 3, 0x1000, 0, 12, 1, 8});
    events.push_back({EventType::TlbMiss, 7, 0x2000, 0, 12, 1, 8});
    CellAnalysis a = analyzeCell({"x/thp", 1, events});
    EXPECT_EQ(a.tlbMisses, 2u);
    // First interarrival counts from time 0 without a Mark.
    EXPECT_EQ(a.missInterarrival.at(3), 1u);
    EXPECT_EQ(a.missInterarrival.at(4), 1u);
}

/** A minimal tps-run-manifest document with one matching cell. */
Json
handManifest(uint64_t misses, const std::string &timing = "real")
{
    Json cell = Json::object();
    Json &w = cell["workload"];
    w["name"] = std::string("gups");
    cell["design"] = std::string("thp");
    cell["seed"] = uint64_t(42);
    Json &opts = cell["options"];
    opts["workload"] = std::string("gups");
    opts["timing"] = timing;
    cell["stats"]["mmu"]["l1"]["misses"] = misses;

    Json manifest = Json::object();
    manifest["format"] = std::string("tps-run-manifest");
    manifest["cells"].push(std::move(cell));
    return manifest;
}

TEST(Analyze, ManifestJoinByLabelAndSeed)
{
    Json manifest = handManifest(7);
    EXPECT_EQ(manifestCellLabel(manifest.at("cells").at(0)),
              "gups/thp");

    const Json *cell = findManifestCell(manifest, "gups/thp", 42);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(findManifestCell(manifest, "gups/thp", 43), nullptr);
    EXPECT_EQ(findManifestCell(manifest, "gups/tps", 42), nullptr);

    Json perfect = handManifest(7, "perfect-l2");
    EXPECT_EQ(manifestCellLabel(perfect.at("cells").at(0)),
              "gups/thp/perfect-l2");
    EXPECT_EQ(findManifestCell(perfect, "gups/thp", 42), nullptr);
    EXPECT_NE(findManifestCell(perfect, "gups/thp/perfect-l2", 42),
              nullptr);
}

TEST(Analyze, ManifestLabelMatchesCellLabelForVariants)
{
    core::RunOptions base;
    base.workload = "xsbench";
    base.design = core::Design::Tps;
    std::vector<core::RunOptions> cells(1, base);
    cells.push_back(base);
    cells.back().tpsThreshold = 0.5;
    cells.push_back(base);
    cells.back().aliasMode = vm::AliasMode::FullCopy;
    cells.push_back(base);
    cells.back().noMmuCache = true;
    cells.push_back(base);
    cells.back().tpsTlbEntries = 64;
    cells.back().tpsTlbSkewed = true;
    cells.back().timing = sim::TlbTimingMode::PerfectL1;
    for (const core::RunOptions &run : cells) {
        Json cell = Json::object();
        cell["design"] = std::string(core::designName(run.design));
        cell["options"] = runOptionsJson(run);
        EXPECT_EQ(manifestCellLabel(cell), core::cellLabel(run));
    }
}

TEST(Analyze, ResidualMissesReconcileWithManifest)
{
    CellAnalysis a = analyzeCell(handCell());
    Json manifest = handManifest(7);
    const Json *cell = findManifestCell(manifest, "gups/thp", 42);
    ASSERT_NE(cell, nullptr);

    std::vector<ResidualRow> rows = residualMisses(a, cell);
    ASSERT_EQ(rows.size(), 2u);  // descending miss count
    EXPECT_EQ(rows[0].pageBits, 21u);
    EXPECT_EQ(rows[0].misses, 5u);
    EXPECT_DOUBLE_EQ(rows[0].shareOfMisses, 5.0 / 7.0);
    EXPECT_DOUBLE_EQ(rows[0].walkRefShare, 3.0 / 7.0);
    EXPECT_EQ(rows[1].pageBits, 12u);
    EXPECT_EQ(rows[1].misses, 2u);
    EXPECT_DOUBLE_EQ(rows[1].shareOfMisses, 2.0 / 7.0);
    EXPECT_DOUBLE_EQ(rows[1].walkRefShare, 4.0 / 7.0);
}

TEST(Analyze, MissCountMismatchIsAHardError)
{
    CellAnalysis a = analyzeCell(handCell());
    Json manifest = handManifest(8);  // off by one
    const Json *cell = findManifestCell(manifest, "gups/thp", 42);
    ASSERT_NE(cell, nullptr);
    EXPECT_THROW(residualMisses(a, cell), SimError);
}

TEST(Analyze, JsonReportCarriesTopNOnly)
{
    CellAnalysis a = analyzeCell(handCell());
    Json j = analysisToJson(a, 2);
    EXPECT_EQ(j.at("tlbMisses").asUInt(), 7u);
    EXPECT_EQ(j.at("hotRegions").size(), 2u);
    EXPECT_EQ(j.at("hotRegions").at(0).at("base").asUInt(),
              0x10002000u);
    EXPECT_EQ(j.at("perPageSize").size(), 2u);
    EXPECT_EQ(j.at("walkLatency").at("p50").asUInt(), 50u);
}

} // namespace
} // namespace tps::obs
