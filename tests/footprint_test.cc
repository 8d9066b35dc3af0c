/**
 * @file
 * The sparse-state RSS guard: a GUPS cell with a 64 GiB table must run
 * in a small fraction of that in host memory.  The simulator keeps
 * buddy free lists, page-table nodes and reservation bitmaps sparse,
 * so host RSS grows with the pages touched, not with the footprint.
 * The cell peaks around 272 MB (about 4.3 MB per simulated GB, mostly
 * materialized L1 page-table nodes); the 512 MB budget leaves ~1.9x
 * headroom for allocator noise and still fails fast if a change brings
 * back state proportional to the footprint.
 *
 * The test reads the whole process's VmHWM, so it needs a process of
 * its own: it is the only test in this binary.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/tps_system.hh"
#include "obs/sweep_monitor.hh"

namespace tps {
namespace {

constexpr uint64_t kFootprintBytes = 64ull << 30;
constexpr uint64_t kRssBudgetBytes = 512ull << 20;

TEST(Footprint, Gups64GiBCellStaysUnderRssBudget)
{
    core::RunOptions opts;
    opts.workload = "gups";
    opts.design = core::Design::Thp;
    opts.footprintBytes = kFootprintBytes;
    sim::SimStats stats = core::runExperiment(opts);
    EXPECT_GT(stats.accesses, 0u);

    uint64_t peak = obs::peakRssBytes();
    ASSERT_GT(peak, 0u) << "no peak-RSS source on this platform";
    std::printf("peak RSS %llu MB, budget %llu MB\n",
                static_cast<unsigned long long>(peak >> 20),
                static_cast<unsigned long long>(kRssBudgetBytes >> 20));
    EXPECT_LE(peak, kRssBudgetBytes)
        << "peak RSS " << (peak >> 20) << " MB over the "
        << (kRssBudgetBytes >> 20) << " MB budget";
}

} // namespace
} // namespace tps
