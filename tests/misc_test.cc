/**
 * @file
 * Cross-cutting tests: the skewed-TLB hierarchy option, a two-thread
 * (SMT) engine run, physical-memory accounting edges, and SimStats helpers.
 */

#include <gtest/gtest.h>

#include "core/tps_system.hh"
#include "sim/engine.hh"
#include "tlb/tlb_hierarchy.hh"
#include "workloads/gups.hh"

namespace tps {
namespace {

TEST(HierarchySkewed, TpsDesignWithSkewedTlb)
{
    tlb::TlbHierarchyConfig cfg;
    cfg.design = tlb::TlbDesign::Tps;
    cfg.tpsTlbSkewed = true;
    tlb::TlbHierarchy h(cfg);
    ASSERT_NE(h.tpsTlb(), nullptr);
    EXPECT_EQ(h.tpsTlb()->capacity(), 32u);

    vm::LeafInfo leaf;
    leaf.pfn = 0x100;
    leaf.pageBits = 15;
    leaf.writable = true;
    leaf.user = true;
    h.fill(0x100000, tlb::TlbEntry::fromLeaf(0x100000, leaf, 0));
    auto res = h.lookup(0x100000 + 0x4000);
    EXPECT_EQ(res.level, tlb::TlbHitLevel::L1);
    h.shootdown(0x100000);
    EXPECT_EQ(h.lookup(0x100000).level, tlb::TlbHitLevel::Miss);
}

TEST(HierarchySkewed, ExperimentRunsEndToEnd)
{
    core::RunOptions opts;
    opts.workload = "gups";
    opts.design = core::Design::Tps;
    opts.scale = 0.02;
    opts.physBytes = 1ull << 30;
    sim::SimStats fa = core::runExperiment(opts);
    opts.tpsTlbSkewed = true;
    sim::SimStats skewed = core::runExperiment(opts);
    EXPECT_EQ(fa.accesses, skewed.accesses);
    // Both organizations virtually eliminate misses for GUPS (a few
    // giant pages); the skewed one may take a handful more conflicts.
    EXPECT_LE(fa.l1TlbMisses, skewed.l1TlbMisses + 100);
    EXPECT_LT(skewed.l1TlbMisses, fa.accesses / 100);
}

TEST(SmtHelper, RunsTwoWorkloads)
{
    os::PhysMemory pm(1ull << 30);
    workloads::GupsConfig cfg;
    cfg.tableBytes = 64ull << 20;
    cfg.updates = 10000;
    workloads::Gups primary(cfg);
    cfg.seed += 1000;
    workloads::Gups competitor(cfg);
    // The second workload is the SMT competitor: it shares the TLBs,
    // walker and caches, while the stats count the primary thread.
    sim::Engine engine(pm, core::makePolicy(core::Design::Thp));
    engine.addWorkload(primary);
    engine.addWorkload(competitor);
    sim::SimStats stats = engine.run();
    EXPECT_EQ(stats.accesses, 20000u);
    // Both threads' work went through the shared MMU.
    EXPECT_GT(stats.mmu.accesses, 2 * stats.accesses);
}

TEST(PhysMemory, ReservationAccountingRoundTrip)
{
    os::PhysMemory pm(64ull << 20);
    uint64_t free0 = pm.freeBytes();
    auto block = pm.reserve(4);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(pm.stats().reservedFrames, 16u);
    pm.commitReserved(5);
    EXPECT_EQ(pm.stats().reservedFrames, 11u);
    EXPECT_EQ(pm.stats().appFrames, 5u);
    pm.freeReservationBlock(*block, 4, 5);
    EXPECT_EQ(pm.stats().reservedFrames, 0u);
    EXPECT_EQ(pm.stats().appFrames, 0u);
    EXPECT_EQ(pm.freeBytes(), free0);
}

TEST(SimStatsHelpers, FractionsBehave)
{
    sim::SimStats s;
    EXPECT_EQ(s.mpki(), 0.0);
    EXPECT_EQ(s.walkCycleFraction(), 0.0);
    EXPECT_EQ(s.systemTimeFraction(), 0.0);
    s.instructions = 1000000;
    s.l1TlbMisses = 5000;
    EXPECT_DOUBLE_EQ(s.mpki(), 5.0);
    s.cycles = 1000;
    s.walkCycles = 250;
    EXPECT_DOUBLE_EQ(s.walkCycleFraction(), 0.25);
    s.osWork.allocCycles = 100;
    s.warmup.osCycles = 60;
    EXPECT_EQ(s.measuredOsCycles(), 40u);
    EXPECT_DOUBLE_EQ(s.systemTimeFraction(), 40.0 / 1040.0);
}

TEST(AddressSpaceExtras, InsertVmaAndFind)
{
    os::PhysMemory pm(64ull << 20);
    os::AddressSpace as(pm, core::makePolicy(core::Design::Base4k));
    os::Vma vma{0x5000000, 0x10000, true};
    as.insertVma(vma);
    const os::Vma *found = as.findVma(0x5008000);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->start, vma.start);
}

TEST(TpsSystemFacade, AccessAfterPromotionStable)
{
    core::TpsSystem::Config cfg;
    cfg.design = core::Design::Tps;
    cfg.physBytes = 128ull << 20;
    core::TpsSystem sys(cfg);
    vm::Vaddr va = sys.mmap(1 << 20);
    vm::Paddr first = sys.access(va + 0x5000, true);
    sys.touchRange(va, 1 << 20);
    // Promotion must not migrate the already-committed frame.
    EXPECT_EQ(sys.access(va + 0x5000, false), first);
}

} // namespace
} // namespace tps
