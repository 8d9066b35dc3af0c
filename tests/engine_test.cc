/**
 * @file
 * Engine, cycle-model, memsys and perf-model tests.
 */

#include <gtest/gtest.h>

#include "core/tps_system.hh"
#include "sim/cycle_model.hh"
#include "sim/engine.hh"
#include "sim/memsys.hh"
#include "sim/perf_model.hh"
#include "workloads/gups.hh"

namespace tps::sim {
namespace {

TEST(MemSys, L1HitAfterFill)
{
    MemSys ms;
    unsigned first = ms.access(0x1000);
    unsigned second = ms.access(0x1000);
    EXPECT_EQ(first, ms.config().dramLatencyCycles);
    EXPECT_EQ(second, ms.config().l1LatencyCycles);
    EXPECT_EQ(ms.stats().accesses, 2u);
    EXPECT_EQ(ms.stats().l1Hits, 1u);
    EXPECT_EQ(ms.stats().dramAccesses, 1u);
}

TEST(MemSys, SameLineSharesEntry)
{
    MemSys ms;
    ms.access(0x1000);
    EXPECT_EQ(ms.access(0x1038), ms.config().l1LatencyCycles);
    EXPECT_EQ(ms.access(0x1040), ms.config().dramLatencyCycles);
}

TEST(MemSys, LlcHitAfterL1Eviction)
{
    MemSys ms;
    ms.access(0);
    // Evict line 0 from the 32 KB L1 (512 lines): touch 64 lines
    // mapping to the same set (stride = sets * 64 B = 4 KB).
    for (int i = 1; i <= 16; ++i)
        ms.access(static_cast<vm::Paddr>(i) * 4096);
    unsigned lat = ms.access(0);
    EXPECT_EQ(lat, ms.config().llcLatencyCycles);
}

TEST(CycleModel, IndependentAccessesOverlap)
{
    CycleModelConfig cfg;
    CycleModel overlap(cfg), serial(cfg);
    for (int i = 0; i < 1000; ++i) {
        overlap.onAccess(0, 200, false);
        serial.onAccess(0, 200, true);
    }
    // Serialized pointer chasing is far slower than overlapped misses.
    EXPECT_GT(serial.cycles(), 2 * overlap.cycles());
    EXPECT_GE(serial.cycles(), 1000ull * 200);
}

TEST(CycleModel, FrontEndBoundWhenMemoryFast)
{
    CycleModelConfig cfg;
    CycleModel m(cfg);
    for (int i = 0; i < 1000; ++i)
        m.onAccess(0, 1, false);
    // ~(instsPerAccess+1)*1000/width cycles.
    uint64_t expect = 1000ull * (cfg.instsPerAccess + 1) / cfg.width;
    EXPECT_NEAR(static_cast<double>(m.cycles()),
                static_cast<double>(expect), expect * 0.1);
}

TEST(CycleModel, TranslationLatencyAdds)
{
    CycleModel a, b;
    for (int i = 0; i < 100; ++i) {
        a.onAccess(0, 100, true);
        b.onAccess(50, 100, true);
    }
    EXPECT_GT(b.cycles(), a.cycles());
    EXPECT_NEAR(static_cast<double>(b.cycles() - a.cycles()), 5000.0,
                500.0);
}

TEST(CycleModel, InflightLimitThrottles)
{
    CycleModelConfig narrow;
    narrow.maxInflight = 1;
    CycleModelConfig wide;
    wide.maxInflight = 64;
    CycleModel n(narrow), w(wide);
    for (int i = 0; i < 1000; ++i) {
        n.onAccess(0, 100, false);
        w.onAccess(0, 100, false);
    }
    EXPECT_GT(n.cycles(), w.cycles());
}

TEST(CycleModel, ResetClearsState)
{
    CycleModel m;
    m.onAccess(10, 100, false);
    EXPECT_GT(m.cycles(), 0u);
    m.reset();
    EXPECT_EQ(m.cycles(), 0u);
    EXPECT_EQ(m.instructions(), 0u);
}

TEST(Engine, RunsGupsToCompletion)
{
    os::PhysMemory pm(1ull << 30);
    EngineConfig cfg;
    // Base-4K paging keeps TLB pressure high even at this small scale.
    Engine engine(pm, std::make_unique<os::Base4kPolicy>(), cfg);
    workloads::GupsConfig gc;
    gc.tableBytes = 64ull << 20;
    gc.updates = 5000;
    workloads::Gups gups(gc);
    engine.addWorkload(gups);
    SimStats stats = engine.run();
    EXPECT_EQ(stats.accesses, 10000u);
    EXPECT_EQ(stats.warmup.accesses, (64ull << 20) / 4096);
    EXPECT_GT(stats.warmup.osCycles, 0u);
    EXPECT_GT(stats.instructions, stats.accesses);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.l1TlbMisses, 0u);
    EXPECT_GT(stats.walkMemRefs, 0u);
    EXPECT_GT(stats.mmapCalls, 0u);
    EXPECT_GT(stats.mpki(), 0.0);
}

TEST(Engine, MaxAccessesCapRespected)
{
    os::PhysMemory pm(1ull << 30);
    EngineConfig cfg;
    cfg.maxAccesses = 1000;
    Engine engine(pm, std::make_unique<os::ThpPolicy>(), cfg);
    workloads::GupsConfig gc;
    gc.tableBytes = 16ull << 20;
    workloads::Gups gups(gc);
    engine.addWorkload(gups);
    SimStats stats = engine.run();
    // The cap bounds the measured phase, after the full init sweep.
    EXPECT_EQ(stats.accesses, 1000u);
    EXPECT_EQ(stats.warmup.accesses, (16ull << 20) / 4096);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto run_once = [] {
        os::PhysMemory pm(1ull << 30);
        EngineConfig cfg;
        Engine engine(pm, std::make_unique<os::TpsPolicy>(), cfg);
        workloads::GupsConfig gc;
        gc.tableBytes = 8ull << 20;
        gc.updates = 3000;
        workloads::Gups gups(gc);
        engine.addWorkload(gups);
        return engine.run();
    };
    SimStats a = run_once();
    SimStats b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1TlbMisses, b.l1TlbMisses);
    EXPECT_EQ(a.walkMemRefs, b.walkMemRefs);
}

TEST(Engine, PerfectTlbModesOrdered)
{
    auto run_mode = [](TlbTimingMode mode) {
        os::PhysMemory pm(1ull << 30);
        EngineConfig cfg;
        cfg.timing = mode;
        Engine engine(pm, std::make_unique<os::ThpPolicy>(), cfg);
        workloads::GupsConfig gc;
        gc.tableBytes = 64ull << 20;
        gc.updates = 20000;
        workloads::Gups gups(gc);
        engine.addWorkload(gups);
        return engine.run().cycles;
    };
    uint64_t real = run_mode(TlbTimingMode::Real);
    uint64_t perfect_l2 = run_mode(TlbTimingMode::PerfectL2);
    uint64_t perfect_l1 = run_mode(TlbTimingMode::PerfectL1);
    EXPECT_GE(real, perfect_l2);
    EXPECT_GE(perfect_l2, perfect_l1);
    EXPECT_GT(perfect_l1, 0u);
}

TEST(Engine, SmtInterferenceRaisesMisses)
{
    auto run = [](bool smt) {
        core::RunOptions opts;
        opts.workload = "gups";
        opts.design = core::Design::Thp;
        opts.scale = 0.05;
        opts.smt = smt;
        return core::runExperiment(opts);
    };
    SimStats solo = run(false);
    SimStats with_smt = run(true);
    EXPECT_EQ(solo.accesses, with_smt.accesses);
    // Shared TLBs under competition: more primary-thread misses.
    EXPECT_GT(with_smt.l1TlbMisses, solo.l1TlbMisses);
    EXPECT_GT(with_smt.cycles, solo.cycles);
}

TEST(PerfModel, SavableFraction)
{
    CounterPoint disabled{2000, 1000};
    CounterPoint enabled{1500, 200};
    // dTC/dPWC = 500/800.
    EXPECT_NEAR(savablePwcFraction(disabled, enabled), 0.625, 1e-9);
    // No PWC reduction -> nothing attributable.
    EXPECT_EQ(savablePwcFraction(enabled, enabled), 0.0);
    // Clamped to 1.
    CounterPoint big_tc{3000, 1000};
    EXPECT_EQ(savablePwcFraction(big_tc, CounterPoint{1000, 900}),
              1.0);
}

TEST(PerfModel, SpeedupDecomposition)
{
    SpeedupInputs in;
    in.baselineCycles = 1000;
    in.perfectL2Cycles = 900;
    in.perfectL1Cycles = 850;
    in.baselinePwCycles = 200;
    in.savableFraction = 0.5;
    in.l1MissElimination = 1.0;
    in.walkRefElimination = 1.0;
    SpeedupResult out = estimateSpeedup(in);
    EXPECT_NEAR(out.tPw, 100.0, 1e-9);
    EXPECT_NEAR(out.tL1dtlbm, 50.0, 1e-9);
    EXPECT_NEAR(out.tIdeal, 850.0, 1e-9);
    EXPECT_NEAR(out.newTime, 850.0, 1e-9);
    EXPECT_NEAR(out.speedup, 1000.0 / 850.0, 1e-9);
    EXPECT_NEAR(out.fractionOfIdeal(), 1.0, 1e-9);
}

TEST(PerfModel, PartialElimination)
{
    SpeedupInputs in;
    in.baselineCycles = 1000;
    in.perfectL2Cycles = 900;
    in.perfectL1Cycles = 850;
    in.baselinePwCycles = 200;
    in.savableFraction = 1.0;
    in.l1MissElimination = 0.0;
    in.walkRefElimination = 0.98;
    SpeedupResult out = estimateSpeedup(in);
    // T_IDEAL = 1000 - 200 - 50; keeps all of T_L1DTLBM, drops 98% of
    // T_PW.
    EXPECT_NEAR(out.newTime, 750.0 + 50.0 + 200.0 * 0.02, 1e-9);
    EXPECT_GT(out.speedup, 1.0);
    EXPECT_LT(out.speedup, out.idealSpeedup);
}

TEST(PerfModel, DecompositionClampedToTotal)
{
    SpeedupInputs in;
    in.baselineCycles = 100;
    in.perfectL2Cycles = 90;
    in.perfectL1Cycles = 10;
    in.baselinePwCycles = 80;
    in.savableFraction = 1.0;
    SpeedupResult out = estimateSpeedup(in);
    EXPECT_GE(out.tIdeal, 0.0);
    EXPECT_LE(out.tPw + out.tL1dtlbm, 100.0);
}

} // namespace
} // namespace tps::sim
