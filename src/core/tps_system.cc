#include "core/tps_system.hh"

#include <algorithm>
#include <cstdio>

#include "check/invariant_checker.hh"
#include "obs/mem_telemetry.hh"
#include "os/policy_rmm.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace tps::core {

const char *
designName(Design d)
{
    switch (d) {
      case Design::Base4k:
        return "base4k";
      case Design::Thp:
        return "thp";
      case Design::Tps:
        return "tps";
      case Design::TpsEager:
        return "tps-eager";
      case Design::Rmm:
        return "rmm";
      case Design::Colt:
        return "colt";
    }
    return "?";
}

const char *
cellStatusName(CellStatus status)
{
    switch (status) {
      case CellStatus::Ok:
        return "ok";
      case CellStatus::Failed:
        return "failed";
      case CellStatus::Timeout:
        return "timeout";
      case CellStatus::Resumed:
        return "resumed";
    }
    return "?";
}

std::unique_ptr<os::PagingPolicy>
makePolicy(Design d, double tps_threshold)
{
    switch (d) {
      case Design::Base4k:
        return std::make_unique<os::Base4kPolicy>();
      case Design::Thp:
        return std::make_unique<os::ThpPolicy>();
      case Design::Tps: {
        os::TpsPolicyConfig cfg;
        cfg.threshold = tps_threshold;
        return std::make_unique<os::TpsPolicy>(cfg);
      }
      case Design::TpsEager: {
        os::TpsPolicyConfig cfg;
        cfg.threshold = tps_threshold;
        cfg.eager = true;
        return std::make_unique<os::TpsPolicy>(cfg);
      }
      case Design::Rmm:
        return std::make_unique<os::RmmPolicy>();
      case Design::Colt:
        return std::make_unique<os::ColtPolicy>();
    }
    tps_panic("unhandled design");
}

tlb::TlbHierarchyConfig
designTlbConfig(Design d)
{
    tlb::TlbHierarchyConfig cfg;
    switch (d) {
      case Design::Tps:
      case Design::TpsEager:
        cfg.design = tlb::TlbDesign::Tps;
        break;
      case Design::Rmm:
        cfg.design = tlb::TlbDesign::Rmm;
        break;
      case Design::Colt:
        cfg.design = tlb::TlbDesign::Colt;
        break;
      default:
        cfg.design = tlb::TlbDesign::Baseline;
        break;
    }
    return cfg;
}

uint64_t
runSeed(const RunOptions &opts)
{
    return cellSeed(opts.workload, designName(opts.design), opts.scale);
}

std::string
cellLabel(const RunOptions &opts)
{
    std::string label = opts.workload + "/" + designName(opts.design);
    if (opts.timing == sim::TlbTimingMode::PerfectL2)
        label += "/perfect-l2";
    else if (opts.timing == sim::TlbTimingMode::PerfectL1)
        label += "/perfect-l1";
    if (opts.tpsThreshold != 1.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "/threshold-%g", opts.tpsThreshold);
        label += buf;
    }
    if (opts.aliasMode == vm::AliasMode::FullCopy)
        label += "/full-copy";
    if (opts.noMmuCache)
        label += "/no-mmu-cache";
    if (opts.tpsTlbEntries != 0)
        label += "/tps-tlb-" + std::to_string(opts.tpsTlbEntries);
    if (opts.tpsTlbSkewed)
        label += "/skewed";
    return label;
}

sim::EngineConfig
makeEngineConfig(const RunOptions &opts)
{
    sim::EngineConfig ecfg;
    ecfg.mmu.tlb = designTlbConfig(opts.design);
    ecfg.mmu.walker.virtualized = opts.virtualized;
    ecfg.mmu.walker.fiveLevel = opts.fiveLevel;
    if (opts.noMmuCache)
        ecfg.mmu.mmuCache = vm::MmuCacheConfig{0, 0, 0};
    ecfg.mmu.tlb.tpsTlbSkewed = opts.tpsTlbSkewed;
    if (opts.tpsTlbEntries != 0)
        ecfg.mmu.tlb.tpsTlbEntries = opts.tpsTlbEntries;
    ecfg.addressSpace.aliasMode = opts.aliasMode;
    ecfg.addressSpace.encoding = opts.encoding;
    ecfg.addressSpace.denseState = opts.denseState;
    ecfg.timing = opts.timing;
    ecfg.maxAccesses = opts.maxAccesses;
    ecfg.epochAccesses = opts.epochAccesses;
    ecfg.checkEveryAccesses = opts.checkEvery;
    ecfg.timeoutSeconds = opts.cellTimeoutSeconds;
    ecfg.referencePath = opts.referencePath;
    if (opts.chunkAccesses != 0)
        ecfg.chunkAccesses = opts.chunkAccesses;
    // Workload construction is cheap (simulated memory is only mapped
    // at setup), so resolving the instruction mix here is fine.
    ecfg.cycle.instsPerAccess =
        workloads::makeWorkload(opts.workload, opts.scale, runSeed(opts),
                                opts.footprintBytes)
            ->info()
            .instsPerAccess;
    return ecfg;
}

uint64_t
effectivePhysBytes(const RunOptions &opts)
{
    if (opts.footprintBytes == 0)
        return opts.physBytes;
    // Fit the footprint itself (twice under SMT: two instances) plus
    // headroom for page tables, reservations and buddy fragmentation:
    // +1/8 covers eager-THP reservation slop and table frames with
    // room to spare, and the 1 GB floor keeps small overrides from
    // starving the allocator.
    uint64_t fp = opts.footprintBytes * (opts.smt ? 2 : 1);
    uint64_t need = fp + fp / 8 + (1ull << 30);
    return std::max(opts.physBytes, need);
}

uint64_t
Census::mappedBytes() const
{
    uint64_t bytes = 0;
    for (const auto &[page_bits, count] : pageSizes.buckets())
        bytes += count << page_bits;
    return bytes;
}

sim::SimStats
runExperiment(const RunOptions &opts)
{
    return runExperiment(opts, RunHooks{});
}

sim::SimStats
runExperiment(const RunOptions &opts, const RunHooks &hooks)
{
    os::PhysMemory pm(effectivePhysBytes(opts), opts.denseState);

    std::optional<os::Fragmenter> fragmenter;
    if (opts.fragmented) {
        fragmenter.emplace(pm, opts.fragmenter);
        fragmenter->run();
    }

    sim::EngineConfig ecfg = makeEngineConfig(opts);
    uint64_t seed = runSeed(opts);
    auto primary = workloads::makeWorkload(opts.workload, opts.scale,
                                           seed, opts.footprintBytes);

    // Declared before the engine: the address-space destructor unmaps
    // surviving VMAs, and those unmaps still fire the telemetry hooks,
    // so the probe must outlive the engine.
    std::optional<obs::MemTelemetry> local_tel;

    sim::Engine engine(pm, makePolicy(opts.design, opts.tpsThreshold),
                       ecfg);
    // Hooks attach before run() so setup-time OS events (the
    // workload's mmaps) land in the trace at time 0.
    if (hooks.trace)
        engine.setEventTrace(hooks.trace);
    if (hooks.profile)
        engine.setProfile(hooks.profile);
    // Telemetry likewise attaches before setup so reservations created
    // by eager policies at mmap time get birth stamps.  An external
    // probe wins; otherwise a local one feeds SimStats::mem.
    obs::MemTelemetry *tel = hooks.memTelemetry;
    if (!tel && opts.memTelemetry)
        tel = &local_tel.emplace();
    if (tel)
        engine.setMemTelemetry(tel);
    engine.addWorkload(*primary);

    std::unique_ptr<workloads::Workload> competitor;
    if (opts.smt) {
        competitor = workloads::makeWorkload(
            opts.workload, opts.scale, seed + 1000,
            opts.footprintBytes);
        engine.addWorkload(*competitor);
    }
    sim::SimStats stats = engine.run();

    if (opts.paranoid) {
        // Full post-run sweep over the final state.  The fragmenter's
        // holdings come from its own ledger (not a usage snapshot), so
        // a frame leaked during the run cannot hide behind it.
        uint64_t exempt = 0;
        if (fragmenter) {
            for (const auto &[pfn, order] : fragmenter->held())
                exempt += 1ull << order;
        }
        check::InvariantChecker::Targets targets;
        targets.as = &engine.addressSpace();
        targets.phys = &pm;
        targets.tlb = &engine.mmu().tlbs();
        targets.exemptFrames = exempt;
        check::InvariantChecker(targets).throwIfBad();
    }

    if (hooks.census) {
        // One walk over the final page table; leaves come in ascending
        // VA order, so a leaf's chunks below `next` are already counted.
        Census census;
        uint64_t next = 0;
        engine.addressSpace().pageTable().forEachLeaf(
            [&](vm::Vaddr base, const vm::LeafInfo &leaf) {
                census.pageSizes.add(leaf.pageBits);
                uint64_t first =
                    std::max(base >> vm::kPageBits2M, next);
                uint64_t last = (base + (1ull << leaf.pageBits) - 1) >>
                                vm::kPageBits2M;
                if (last >= first) {
                    census.chunks2m += last - first + 1;
                    next = last + 1;
                }
            });
        *hooks.census = std::move(census);
    }
    return stats;
}

TpsSystem::TpsSystem(const Config &cfg)
    : cfg_(cfg), phys_(std::make_unique<os::PhysMemory>(cfg.physBytes,
                                                        cfg.denseState))
{
    sim::EngineConfig ecfg;
    ecfg.mmu.tlb = designTlbConfig(cfg.design);
    ecfg.addressSpace.aliasMode = cfg.aliasMode;
    ecfg.addressSpace.encoding = cfg.encoding;
    ecfg.addressSpace.denseState = cfg.denseState;
    engine_ = std::make_unique<sim::Engine>(
        *phys_, makePolicy(cfg.design, cfg.tpsThreshold), ecfg);
}

vm::Vaddr
TpsSystem::mmap(uint64_t bytes)
{
    return engine_->mmap(bytes);
}

void
TpsSystem::munmap(vm::Vaddr start)
{
    engine_->munmap(start);
}

vm::Paddr
TpsSystem::access(vm::Vaddr va, bool write)
{
    return engine_->mmu().access(va, write).pa;
}

void
TpsSystem::touchRange(vm::Vaddr start, uint64_t bytes, bool write)
{
    for (uint64_t off = 0; off < bytes; off += vm::kBasePageBytes)
        access(start + off, write);
}

} // namespace tps::core
