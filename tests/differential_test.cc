/**
 * @file
 * Differential reference-model tests for the devirtualized translate
 * step.
 *
 * The engine's chunked, devirtualized step must be bit-identical to
 * the retained virtual-dispatch reference step: not approximately
 * equal, not equal-within-tolerance -- every statistic, every epoch
 * sample, every manifest byte, every event-trace byte.  These tests
 * sweep the full (workload x design) grid at a small scale, run each
 * cell down both paths, and diff the results:
 *
 *  1. SimStats field-identical for every registry workload under every
 *     design, including the skewed-associative TPS TLB variant.
 *  2. Host-free run manifests (options, config, stat tree, epoch
 *     series) byte-identical between the two paths.
 *  3. Event traces byte-identical between the two paths.
 *  4. Chunk size is performance-only: epoch boundaries that land
 *     mid-chunk (sizes 1, 7 and 4096 against a non-divisible epoch
 *     interval) produce identical epoch series.
 *  5. The equivalences hold through the ExperimentRunner at --jobs=1
 *     and --jobs=4.
 *  6. SMT cells (one access per thread per round on either step) agree
 *     in stats and event-trace bytes across warmup, epoch and
 *     maxAccesses boundaries, including a competitor that runs out
 *     before the primary.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/event_trace.hh"
#include "obs/run_manifest.hh"
#include "workloads/registry.hh"

namespace tps::core {
namespace {

/** Assert every field of two SimStats is identical (no tolerance). */
void
expectIdentical(const sim::SimStats &a, const sim::SimStats &b,
                const std::string &what)
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
    TPS_EQ(epochInterval);
#undef TPS_EQ
    ASSERT_EQ(a.epochs.size(), b.epochs.size()) << what;
    for (size_t i = 0; i < a.epochs.size(); ++i) {
        const sim::EpochSample &x = a.epochs[i];
        const sim::EpochSample &y = b.epochs[i];
#define TPS_EPOCH_EQ(field)                                                 \
    EXPECT_EQ(x.field, y.field) << what << ": epoch " << i << " " #field
        TPS_EPOCH_EQ(accesses);
        TPS_EPOCH_EQ(instructions);
        TPS_EPOCH_EQ(cycles);
        TPS_EPOCH_EQ(l1TlbMisses);
        TPS_EPOCH_EQ(l2TlbHits);
        TPS_EPOCH_EQ(walks);
        TPS_EPOCH_EQ(walkMemRefs);
        TPS_EPOCH_EQ(walkCycles);
        TPS_EPOCH_EQ(faults);
        TPS_EPOCH_EQ(osCycles);
#undef TPS_EPOCH_EQ
    }
}

constexpr Design kDesigns[] = {
    Design::Base4k, Design::Thp,  Design::Tps,
    Design::TpsEager, Design::Rmm, Design::Colt,
};

/**
 * The full differential grid: every registry workload under every
 * design, plus the skewed-associative TPS TLB (the sixth TLB type,
 * reached through a design flag rather than a design of its own).
 */
std::vector<RunOptions>
fullGrid(double scale = 0.01)
{
    std::vector<RunOptions> cells;
    for (const std::string &wl : workloads::profilingSuite()) {
        for (Design d : kDesigns) {
            RunOptions opts;
            opts.workload = wl;
            opts.design = d;
            opts.scale = scale;
            opts.physBytes = 512ull << 20;
            cells.push_back(opts);
        }
        RunOptions skewed;
        skewed.workload = wl;
        skewed.design = Design::Tps;
        skewed.tpsTlbSkewed = true;
        skewed.scale = scale;
        skewed.physBytes = 512ull << 20;
        cells.push_back(skewed);
    }
    return cells;
}

std::string
cellName(const RunOptions &opts)
{
    std::string name = cellLabel(opts);
    if (opts.tpsTlbSkewed)
        name += "/skewed";
    return name;
}

TEST(Differential, FastPathBitIdenticalAcrossFullGrid)
{
    for (const RunOptions &cell : fullGrid()) {
        RunOptions fast = cell;
        RunOptions reference = cell;
        reference.referencePath = true;
        expectIdentical(runExperiment(fast), runExperiment(reference),
                        cellName(cell));
    }
}

/** Host-free manifest bytes for @p cells run down one path. */
std::string
manifestBytes(std::vector<RunOptions> cells, bool reference_path,
              unsigned jobs)
{
    for (RunOptions &cell : cells) {
        cell.referencePath = reference_path;
        cell.epochAccesses = 5000;
    }
    ExperimentRunner runner(jobs);
    std::vector<sim::SimStats> stats = runner.run(cells);
    std::vector<obs::CellArtifact> artifacts;
    for (size_t i = 0; i < cells.size(); ++i) {
        obs::CellArtifact cell;
        cell.options = cells[i];
        cell.stats = stats[i];
        artifacts.push_back(std::move(cell));
    }
    obs::ManifestInfo info;
    info.bench = "differential";
    info.jobs = jobs;
    info.includeHost = false;
    return obs::manifestJson(info, artifacts).dump(2);
}

TEST(Differential, ManifestBytesIdenticalFastVsReference)
{
    // A smaller grid (the three paper-central designs over the
    // evaluation-suite heavy hitters) keeps this byte-level pass
    // quick; the full grid is covered field-wise above.
    std::vector<RunOptions> cells;
    for (const char *wl : {"gups", "mcf", "xsbench", "graph500"}) {
        for (Design d : {Design::Thp, Design::Tps, Design::Colt}) {
            RunOptions opts;
            opts.workload = wl;
            opts.design = d;
            opts.scale = 0.01;
            opts.physBytes = 512ull << 20;
            cells.push_back(opts);
        }
    }
    std::string fast = manifestBytes(cells, false, 1);
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(fast, manifestBytes(cells, true, 1));
    // The same equivalence through a 4-wide worker pool.
    EXPECT_EQ(fast, manifestBytes(cells, false, 4));
    EXPECT_EQ(fast, manifestBytes(cells, true, 4));
}

TEST(Differential, EpochBoundariesMidChunk)
{
    // Chunk sizes that leave epoch boundaries nowhere near chunk
    // boundaries: with epochAccesses = 3333, a 4096-access chunk
    // spans whole epochs and a 7-access chunk straddles every
    // boundary.  The epoch series must not notice.
    for (Design d : {Design::Thp, Design::Tps}) {
        RunOptions base;
        base.workload = "gups";
        base.design = d;
        base.scale = 0.02;
        base.physBytes = 512ull << 20;
        base.epochAccesses = 3333;

        RunOptions reference = base;
        reference.referencePath = true;
        sim::SimStats want = runExperiment(reference);
        ASSERT_GT(want.epochs.size(), 2u);

        for (uint64_t chunk : {uint64_t(1), uint64_t(7),
                               uint64_t(4096)}) {
            RunOptions fast = base;
            fast.chunkAccesses = chunk;
            expectIdentical(want, runExperiment(fast),
                            cellName(base) + "/chunk=" +
                                std::to_string(chunk));
        }
    }
}

TEST(Differential, WarmupBoundaryMidChunk)
{
    // Workloads with a warmup phase reset statistics mid-stream; the
    // reset must land on the same access whatever the chunk size.
    RunOptions base;
    base.workload = "xsbench";
    base.design = Design::Tps;
    base.scale = 0.01;
    base.physBytes = 512ull << 20;

    RunOptions reference = base;
    reference.referencePath = true;
    sim::SimStats want = runExperiment(reference);
    ASSERT_GT(want.warmup.accesses, 0u);

    for (uint64_t chunk : {uint64_t(1), uint64_t(7), uint64_t(4096)}) {
        RunOptions fast = base;
        fast.chunkAccesses = chunk;
        expectIdentical(want, runExperiment(fast),
                        "xsbench/tps/chunk=" + std::to_string(chunk));
    }
}

TEST(Differential, MaxAccessesBoundaryMidChunk)
{
    // A maxAccesses cap that is prime (and far from any chunk
    // multiple) must stop both paths on exactly the same access.
    RunOptions base;
    base.workload = "gups";
    base.design = Design::Tps;
    base.scale = 0.02;
    base.physBytes = 512ull << 20;
    base.maxAccesses = 10007;

    RunOptions reference = base;
    reference.referencePath = true;
    sim::SimStats want = runExperiment(reference);

    for (uint64_t chunk : {uint64_t(1), uint64_t(7), uint64_t(4096)}) {
        RunOptions fast = base;
        fast.chunkAccesses = chunk;
        expectIdentical(want, runExperiment(fast),
                        "gups/tps/maxAccesses/chunk=" +
                            std::to_string(chunk));
    }
}

TEST(Differential, ParanoidCheckerAgreesAcrossPaths)
{
    // In-run invariant sweeps observe intermediate state; they must
    // see the same machine at the same access counts on both paths.
    RunOptions base;
    base.workload = "gups";
    base.design = Design::Tps;
    base.scale = 0.01;
    base.physBytes = 512ull << 20;
    base.checkEvery = 2500;
    base.paranoid = true;

    RunOptions reference = base;
    reference.referencePath = true;
    expectIdentical(runExperiment(base), runExperiment(reference),
                    "gups/tps/paranoid");
}

TEST(Differential, SmtBitIdenticalAcrossSteps)
{
    // The devirtualized step must reproduce the reference step's round
    // order: the primary's access and its boundary actions, then one
    // competitor access.  gcc's competitor mmaps and munmaps inside its
    // refills, so any reordering moves OS events and faults.
    for (const char *wl : {"mcf", "gcc", "xsbench"}) {
        for (Design d : {Design::Thp, Design::Tps, Design::Colt}) {
            for (uint64_t max : {~uint64_t(0), uint64_t(10007)}) {
                RunOptions fast;
                fast.workload = wl;
                fast.design = d;
                fast.scale = 0.01;
                fast.physBytes = 512ull << 20;
                fast.smt = true;
                fast.epochAccesses = 3333;
                fast.maxAccesses = max;
                RunOptions reference = fast;
                reference.referencePath = true;

                obs::EventTrace fast_trace, reference_trace;
                RunHooks fast_hooks, reference_hooks;
                fast_hooks.trace = &fast_trace;
                reference_hooks.trace = &reference_trace;
                std::string what = cellName(fast) + "/smt/max=" +
                                   std::to_string(max);
                sim::SimStats want =
                    runExperiment(reference, reference_hooks);
                ASSERT_GT(want.warmup.accesses, 0u) << what;
                expectIdentical(want, runExperiment(fast, fast_hooks),
                                what);
                EXPECT_EQ(obs::encodeEvents(fast_trace.events()),
                          obs::encodeEvents(reference_trace.events()))
                    << what;
            }
        }
    }
}

TEST(Differential, SmtCompetitorExhaustsFirst)
{
    // A competitor a quarter the primary's length runs out mid-run;
    // from then on the primary runs alone, on either step.
    auto run = [](bool reference_path) {
        RunOptions opts;
        opts.workload = "gups";
        opts.design = Design::Tps;
        opts.scale = 0.02;
        opts.epochAccesses = 3333;
        opts.referencePath = reference_path;
        os::PhysMemory pm(512ull << 20);
        sim::Engine engine(pm, makePolicy(opts.design),
                           makeEngineConfig(opts));
        auto primary = workloads::makeWorkload("gups", 0.02, 1);
        auto competitor = workloads::makeWorkload("gups", 0.005, 2);
        engine.addWorkload(*primary);
        engine.addWorkload(*competitor);
        sim::SimStats stats = engine.run();
        EXPECT_EQ(stats.accesses, primary->info().defaultAccesses);
        sim::MemAccess acc;
        EXPECT_FALSE(competitor->next(acc));
        EXPECT_LT(competitor->warmupAccesses() +
                      competitor->info().defaultAccesses,
                  stats.warmup.accesses + stats.accesses);
        return stats;
    };
    expectIdentical(run(true), run(false), "gups/tps/smt/exhausted");
}

} // namespace
} // namespace tps::core
