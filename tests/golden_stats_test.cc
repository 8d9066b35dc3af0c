/**
 * @file
 * Golden-statistics regression tests.
 *
 * Two guarantees are pinned here:
 *
 *  1. Parallel == serial, bitwise: the same cells run through
 *     core::runExperiment one by one and through a 4-thread
 *     ExperimentRunner must produce identical statistics in every
 *     field.  Any drift means a cell's behaviour leaked across
 *     threads (shared mutable state) or its seeds stopped being a
 *     pure function of the cell identity.
 *
 *  2. Golden values: exact counters for gups and mcf under THP and
 *     TPS at a fixed small scale, their end-of-run page-size census
 *     (Figs. 9 and 18), and counters for mcf and gcc with an SMT
 *     competitor.  These fail on any silent perf-model, seeding or
 *     engine round-order change, forcing the change to be
 *     acknowledged by updating the constants here.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/event_trace.hh"
#include "obs/run_manifest.hh"
#include "util/rng.hh"

namespace tps::core {
namespace {

/** Assert every field of two SimStats is identical (no tolerance). */
void
expectIdentical(const sim::SimStats &a, const sim::SimStats &b,
                const char *what)
{
#define TPS_EQ(field) EXPECT_EQ(a.field, b.field) << what << ": " #field
    TPS_EQ(warmup.accesses);
    TPS_EQ(warmup.cycles);
    TPS_EQ(warmup.osCycles);
    TPS_EQ(warmup.faults);
    TPS_EQ(accesses);
    TPS_EQ(instructions);
    TPS_EQ(cycles);
    TPS_EQ(l1TlbMisses);
    TPS_EQ(l2TlbHits);
    TPS_EQ(tlbMisses);
    TPS_EQ(walkMemRefs);
    TPS_EQ(walkCycles);
    TPS_EQ(stlbPenaltyCycles);
    TPS_EQ(faults);
    TPS_EQ(mmu.accesses);
    TPS_EQ(mmu.l1Hits);
    TPS_EQ(mmu.l1Misses);
    TPS_EQ(mmu.l2Hits);
    TPS_EQ(mmu.walks);
    TPS_EQ(mmu.walkMemRefs);
    TPS_EQ(mmu.faultWalkMemRefs);
    TPS_EQ(mmu.faults);
    TPS_EQ(mmu.writeProtFaults);
    TPS_EQ(mmu.adPteWrites);
    TPS_EQ(mmu.adVectorStores);
    TPS_EQ(mmu.walkCycles);
    TPS_EQ(mmu.stlbPenaltyCycles);
    TPS_EQ(mmu.nestedWalkRefs);
    TPS_EQ(walker.walks);
    TPS_EQ(walker.faults);
    TPS_EQ(walker.accesses);
    TPS_EQ(walker.aliasExtra);
    TPS_EQ(walker.nestedAccesses);
    TPS_EQ(walker.nestedTlbHits);
    TPS_EQ(walker.nestedTlbMisses);
    TPS_EQ(memsys.accesses);
    TPS_EQ(memsys.l1Hits);
    TPS_EQ(memsys.llcHits);
    TPS_EQ(memsys.dramAccesses);
    TPS_EQ(osWork.faultCycles);
    TPS_EQ(osWork.allocCycles);
    TPS_EQ(osWork.pteCycles);
    TPS_EQ(osWork.zeroCycles);
    TPS_EQ(osWork.shootdownCycles);
    TPS_EQ(osWork.faults);
    TPS_EQ(osWork.promotions);
    TPS_EQ(osWork.reservationsCreated);
    TPS_EQ(osWork.reservationsMissed);
    TPS_EQ(mmapCalls);
    TPS_EQ(munmapCalls);
#undef TPS_EQ
}

std::vector<RunOptions>
smallGrid()
{
    // Three (workload x design) cells, small enough for test time but
    // long enough to exercise faults, promotions and TLB churn.
    std::vector<RunOptions> cells;
    for (auto [wl, d] : {std::pair<const char *, Design>
                             {"gups", Design::Thp},
                         {"xsbench", Design::Tps},
                         {"mcf", Design::Colt}}) {
        RunOptions opts;
        opts.workload = wl;
        opts.design = d;
        opts.scale = 0.02;
        opts.physBytes = 512ull << 20;
        cells.push_back(opts);
    }
    return cells;
}

TEST(GoldenStats, ParallelRunBitIdenticalToSerial)
{
    std::vector<RunOptions> cells = smallGrid();

    std::vector<sim::SimStats> serial;
    for (const RunOptions &cell : cells)
        serial.push_back(runExperiment(cell));

    ExperimentRunner runner(4);
    ASSERT_EQ(runner.jobs(), 4u);
    std::vector<sim::SimStats> parallel = runner.run(cells);

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < cells.size(); ++i)
        expectIdentical(serial[i], parallel[i],
                        cells[i].workload.c_str());
}

TEST(GoldenStats, RepeatedParallelRunsIdentical)
{
    // Two 4-thread sweeps of the same grid agree with each other
    // (scheduling nondeterminism must not reach the statistics).
    std::vector<RunOptions> cells = smallGrid();
    ExperimentRunner a(4), b(4);
    std::vector<sim::SimStats> first = a.run(cells);
    std::vector<sim::SimStats> second = b.run(cells);
    for (size_t i = 0; i < cells.size(); ++i)
        expectIdentical(first[i], second[i], cells[i].workload.c_str());
}

TEST(GoldenStats, SeedIsPureFunctionOfCellIdentity)
{
    RunOptions opts;
    opts.workload = "gups";
    opts.design = Design::Tps;
    opts.scale = 0.02;
    uint64_t seed = runSeed(opts);
    EXPECT_EQ(seed, runSeed(opts));

    RunOptions other = opts;
    other.design = Design::Thp;
    EXPECT_NE(runSeed(other), seed);
    other = opts;
    other.workload = "mcf";
    EXPECT_NE(runSeed(other), seed);
    other = opts;
    other.scale = 0.04;
    EXPECT_NE(runSeed(other), seed);
    // Knobs outside the cell identity do not move the seed: a census
    // or perfect-TLB re-run of a cell sees the same access stream.
    other = opts;
    other.timing = sim::TlbTimingMode::PerfectL1;
    other.physBytes *= 2;
    EXPECT_EQ(runSeed(other), seed);
}

/** The grid's host-free manifest JSON when run on @p jobs workers. */
std::string
manifestBytes(unsigned jobs)
{
    std::vector<RunOptions> cells = smallGrid();
    // Epoch sampling on: the per-epoch series must be schedule-stable
    // too, not just the totals.
    for (RunOptions &cell : cells)
        cell.epochAccesses = 10000;

    ExperimentRunner runner(jobs);
    std::vector<sim::SimStats> stats = runner.run(cells);
    std::vector<obs::CellArtifact> artifacts;
    for (size_t i = 0; i < cells.size(); ++i) {
        obs::CellArtifact cell;
        cell.options = cells[i];
        cell.stats = stats[i];
        cell.wallSeconds = double(jobs);  // must not reach the bytes
        artifacts.push_back(std::move(cell));
    }
    obs::ManifestInfo info;
    info.bench = "golden";
    info.jobs = jobs;
    info.includeHost = false;
    return obs::manifestJson(info, artifacts).dump(2);
}

TEST(GoldenStats, ManifestByteStableAcrossJobs)
{
    // The full --stats-json artifact (config, seeds, stat tree, epoch
    // series) is byte-identical however wide the worker pool was.
    std::string serial = manifestBytes(1);
    EXPECT_EQ(serial, manifestBytes(4));
    EXPECT_EQ(serial, manifestBytes(7));
}

/**
 * Golden counters for gups and mcf at scale 0.02 under THP and TPS.
 * These are the measured-phase numbers the figure benches consume
 * (Fig. 10/11 inputs), plus the data-cache model's per-level counts
 * and the cycle total (Fig. 13 inputs), so a change to the cache model
 * that moves these counts fails here.  If a legitimate model
 * change moves them, re-pin by running:
 *   build/tests/test_golden_stats --gtest_filter='GoldenStats.*Under*'
 * and copying the "actual" values reported in the failure output.
 */
struct Golden
{
    uint64_t accesses;
    uint64_t l1TlbMisses;
    uint64_t tlbMisses;
    uint64_t walkMemRefs;
    uint64_t faults;
    uint64_t promotions;
};

/** Data-cache and cycle-model counters of one cell. */
struct MemGolden
{
    uint64_t accesses;
    uint64_t l1Hits;
    uint64_t llcHits;
    uint64_t dramAccesses;
    uint64_t cycles;
};

sim::SimStats
runCell(const char *workload, Design d)
{
    RunOptions opts;
    opts.workload = workload;
    opts.design = d;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    return runExperiment(opts);
}

void
expectGolden(const sim::SimStats &s, const Golden &g, const MemGolden &m)
{
    EXPECT_EQ(s.accesses, g.accesses);
    EXPECT_EQ(s.l1TlbMisses, g.l1TlbMisses);
    EXPECT_EQ(s.tlbMisses, g.tlbMisses);
    EXPECT_EQ(s.walkMemRefs, g.walkMemRefs);
    EXPECT_EQ(s.faults, g.faults);
    EXPECT_EQ(s.osWork.promotions, g.promotions);
    EXPECT_EQ(s.memsys.accesses, m.accesses);
    EXPECT_EQ(s.memsys.l1Hits, m.l1Hits);
    EXPECT_EQ(s.memsys.llcHits, m.llcHits);
    EXPECT_EQ(s.memsys.dramAccesses, m.dramAccesses);
    EXPECT_EQ(s.cycles, m.cycles);
}

TEST(GoldenStats, GupsUnderThp)
{
    expectGolden(runCell("gups", Design::Thp),
                 Golden{30000, 3140, 38, 38, 0, 40},
                 MemGolden{30038, 15043, 88, 14907, 377137});
}

TEST(GoldenStats, GupsUnderTps)
{
    expectGolden(runCell("gups", Design::Tps),
                 Golden{30000, 55, 1, 2, 0, 20962},
                 MemGolden{30002, 15005, 92, 14905, 373384});
}

TEST(GoldenStats, McfUnderThp)
{
    expectGolden(runCell("mcf", Design::Thp),
                 Golden{30000, 0, 0, 0, 0, 32},
                 MemGolden{30000, 3334, 14, 26652, 1001207});
}

TEST(GoldenStats, McfUnderTps)
{
    expectGolden(runCell("mcf", Design::Tps),
                 Golden{30000, 0, 0, 0, 0, 16383},
                 MemGolden{30000, 3333, 7, 26660, 1001001});
}

/** A cell's end-of-run census: size buckets, 2 MB chunks, bytes. */
struct CensusGolden
{
    const char *workload;
    Design design;
    std::map<uint64_t, uint64_t> pageSizes;  //!< log2(size) -> pages
    uint64_t chunks2m;
    uint64_t mappedBytes;
};

/**
 * The census runExperiment() captures for the single-thread golden
 * cells, as Fig. 18 (page-size buckets under TPS) and Fig. 9 (2 MB
 * chunks and committed bytes against base-4K) read it.  Capturing it
 * leaves the counters untouched, and runCellGuarded() hands back the
 * same census.
 */
TEST(GoldenStats, EndOfRunCensus)
{
    const std::vector<CensusGolden> goldens = {
        {"gups", Design::Base4k, {{12, 20971}}, 41, 85897216},
        {"gups", Design::Tps,
         {{12, 1}, {13, 1}, {15, 1}, {17, 1}, {18, 1}, {19, 1}, {20, 1},
          {24, 1}, {26, 1}},
         41, 85897216},
        {"mcf", Design::Base4k, {{12, 16384}}, 32, 67108864},
        {"mcf", Design::Tps, {{26, 1}}, 32, 67108864},
    };
    for (const CensusGolden &g : goldens) {
        RunOptions opts;
        opts.workload = g.workload;
        opts.design = g.design;
        opts.scale = 0.02;
        opts.physBytes = 512ull << 20;
        std::string what =
            std::string(g.workload) + "/" + designName(g.design);

        Census census;
        RunHooks hooks;
        hooks.census = &census;
        sim::SimStats stats = runExperiment(opts, hooks);
        EXPECT_EQ(stats.toJson().dump(),
                  runExperiment(opts).toJson().dump())
            << what;
        EXPECT_EQ(census.pageSizes.buckets(), g.pageSizes) << what;
        EXPECT_EQ(census.chunks2m, g.chunks2m) << what;
        EXPECT_EQ(census.mappedBytes(), g.mappedBytes) << what;

        SweepPolicy policy;
        policy.census = true;
        CellOutcome out = runCellGuarded(opts, policy);
        ASSERT_EQ(out.status, CellStatus::Ok) << what;
        ASSERT_TRUE(out.census) << what;
        EXPECT_EQ(out.census->pageSizes.buckets(), g.pageSizes) << what;
        EXPECT_EQ(out.census->chunks2m, g.chunks2m) << what;
    }
}

/**
 * Golden counters for SMT cells (a competing instance of the same
 * workload shares every structure; Figs. 2 and 14).  gcc allocates and
 * frees regions inside its refills, so its cells pin the round order:
 * the primary's access, then one competitor access per round.  Re-pin
 * as for the single-thread cells above.
 */
struct SmtGolden
{
    uint64_t warmupAccesses;
    uint64_t warmupCycles;
    uint64_t warmupFaults;
    uint64_t accesses;
    uint64_t l1TlbMisses;
    uint64_t l2TlbHits;
    uint64_t tlbMisses;
    uint64_t walkCycles;
    uint64_t stlbPenaltyCycles;
    uint64_t faults;
    uint64_t walkMemRefs;
    uint64_t cycles;
    uint64_t mmapCalls;
    uint64_t munmapCalls;
};

sim::SimStats
runSmtCell(const char *workload, Design d,
           obs::EventTrace *trace = nullptr)
{
    RunOptions opts;
    opts.workload = workload;
    opts.design = d;
    opts.scale = 0.02;
    opts.physBytes = 512ull << 20;
    opts.smt = true;
    RunHooks hooks;
    hooks.trace = trace;
    return runExperiment(opts, hooks);
}

void
expectSmtGolden(const sim::SimStats &s, const SmtGolden &g,
                const MemGolden &m)
{
    EXPECT_EQ(s.warmup.accesses, g.warmupAccesses);
    EXPECT_EQ(s.warmup.cycles, g.warmupCycles);
    EXPECT_EQ(s.warmup.faults, g.warmupFaults);
    EXPECT_EQ(s.accesses, g.accesses);
    EXPECT_EQ(s.l1TlbMisses, g.l1TlbMisses);
    EXPECT_EQ(s.l2TlbHits, g.l2TlbHits);
    EXPECT_EQ(s.tlbMisses, g.tlbMisses);
    EXPECT_EQ(s.walkCycles, g.walkCycles);
    EXPECT_EQ(s.stlbPenaltyCycles, g.stlbPenaltyCycles);
    EXPECT_EQ(s.faults, g.faults);
    EXPECT_EQ(s.walkMemRefs, g.walkMemRefs);
    EXPECT_EQ(s.cycles, g.cycles);
    EXPECT_EQ(s.mmapCalls, g.mmapCalls);
    EXPECT_EQ(s.munmapCalls, g.munmapCalls);
    EXPECT_EQ(s.memsys.accesses, m.accesses);
    EXPECT_EQ(s.memsys.l1Hits, m.l1Hits);
    EXPECT_EQ(s.memsys.llcHits, m.llcHits);
    EXPECT_EQ(s.memsys.dramAccesses, m.dramAccesses);
    EXPECT_EQ(s.cycles, m.cycles);
}

TEST(GoldenStats, McfSmtUnderThp)
{
    expectSmtGolden(runSmtCell("mcf", Design::Thp),
                    SmtGolden{16384, 437725, 16384, 30000, 13390, 13360,
                              30, 316, 120240, 0, 30, 2068346, 2, 0},
                    MemGolden{60065, 6730, 3, 53332, 2068346});
}

TEST(GoldenStats, McfSmtUnderTps)
{
    expectSmtGolden(runSmtCell("mcf", Design::Tps),
                    SmtGolden{16384, 441655, 16384, 30000, 0, 0, 0, 0, 0,
                              0, 0, 2002217, 2, 0},
                    MemGolden{60006, 6671, 4, 53331, 2002217});
}

TEST(GoldenStats, GccSmtUnderThp)
{
    expectSmtGolden(runSmtCell("gcc", Design::Thp),
                    SmtGolden{1638, 57322, 1638, 30000, 3902, 2017, 1885,
                              71844, 18153, 819, 2514, 636365, 330, 10},
                    MemGolden{66709, 20278, 7286, 39145, 636365});
}

TEST(GoldenStats, GccSmtUnderTps)
{
    expectSmtGolden(runSmtCell("gcc", Design::Tps),
                    SmtGolden{1638, 55565, 1638, 30000, 1840, 344, 1496,
                              75296, 3096, 924, 2728, 683841, 328, 8},
                    MemGolden{67202, 17617, 5893, 43692, 683841});
}

/**
 * The traced gcc SMT pair: the encoded event stream (both threads'
 * events on one trace clock) is pinned by size and hash, and tracing
 * leaves the counters untouched.
 */
TEST(GoldenStats, GccSmtTraceBytes)
{
    struct TraceGolden
    {
        Design design;
        size_t bytes;
        uint64_t hash;
    };
    for (const TraceGolden &g :
         {TraceGolden{Design::Thp, 336118, 8373580575617991817ull},
          TraceGolden{Design::Tps, 320644, 15930450627095495307ull}}) {
        obs::EventTrace trace;
        sim::SimStats traced = runSmtCell("gcc", g.design, &trace);
        EXPECT_EQ(traced.toJson().dump(),
                  runSmtCell("gcc", g.design).toJson().dump())
            << designName(g.design);
        std::string blob = obs::encodeEvents(trace.events());
        EXPECT_EQ(blob.size(), g.bytes) << designName(g.design);
        EXPECT_EQ(stableHash64(blob), g.hash) << designName(g.design);
    }
}

} // namespace
} // namespace tps::core
