#include "sim/engine.hh"

#include <algorithm>
#include <chrono>
#include <optional>

#include "check/invariant_checker.hh"
#include "obs/event_trace.hh"
#include "obs/profile.hh"
#include "obs/stat_registry.hh"
#include "obs/stats_bindings.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"
#include "util/stats.hh"

namespace tps::sim {

namespace {

/**
 * Cumulative counter values at the last epoch boundary; the epoch
 * snapshot pushes the deltas since then.  Reads only, so sampling never
 * perturbs the simulation.
 */
struct EpochPrev
{
    uint64_t accesses = 0;
    uint64_t l1TlbMisses = 0;
    uint64_t l2TlbHits = 0;
    uint64_t walks = 0;
    uint64_t walkMemRefs = 0;
    uint64_t walkCycles = 0;
    uint64_t faults = 0;
    uint64_t cycles = 0;
    uint64_t osCycles = 0;
};

/** Primary accesses between two reads of the wall clock (deadline). */
constexpr uint64_t kClockInterval = 4096;

} // namespace

double
EpochSample::mpki() const
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(l1TlbMisses) /
                     static_cast<double>(instructions);
}

double
EpochSample::walkCycleFraction() const
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(walkCycles) /
                             static_cast<double>(cycles);
}

double
SimStats::mpki() const
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(l1TlbMisses) /
                     static_cast<double>(instructions);
}

double
SimStats::walkCycleFraction() const
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(walkCycles) /
                             static_cast<double>(cycles);
}

uint64_t
SimStats::measuredOsCycles() const
{
    uint64_t total = osWork.totalCycles();
    return total > warmup.osCycles ? total - warmup.osCycles : 0;
}

double
SimStats::systemTimeFraction() const
{
    uint64_t sys = measuredOsCycles();
    uint64_t total = cycles + sys;
    return total == 0 ? 0.0
                      : static_cast<double>(sys) /
                            static_cast<double>(total);
}

double
SimStats::fullRunSystemTimeFraction() const
{
    uint64_t sys = osWork.totalCycles();
    uint64_t total = cycles + warmup.cycles + sys;
    return total == 0 ? 0.0
                      : static_cast<double>(sys) /
                            static_cast<double>(total);
}

obs::Json
SimStats::toJson() const
{
    obs::StatRegistry reg;
    obs::bindSimStats(reg, this);
    obs::Json j = reg.toJson();
    if (epochInterval)
        j["epochs"] = obs::epochsJson(*this);
    if (mem.enabled)
        j["mem"] = mem.toJson();
    return j;
}

Engine::Engine(os::PhysMemory &pm,
               std::unique_ptr<os::PagingPolicy> policy, EngineConfig cfg)
    : cfg_(cfg), memsys_(cfg.memsys),
      as_(std::make_unique<os::AddressSpace>(pm, std::move(policy),
                                             cfg.addressSpace)),
      cycle_(cfg.cycle)
{
    mmu_ = std::make_unique<Mmu>(*as_, &memsys_, cfg_.mmu);
}

void
Engine::addWorkload(workloads::Workload &w)
{
    workloads_.push_back(&w);
}

vm::Vaddr
Engine::mmap(uint64_t bytes)
{
    ++mmapCalls_;
    return as_->mmap(bytes, true);
}

void
Engine::munmap(vm::Vaddr start)
{
    ++munmapCalls_;
    as_->munmap(start);
}

void
Engine::setEventTrace(obs::EventTrace *trace)
{
    trace_ = trace;
    mmu_->setEventTrace(trace);
    as_->setEventTrace(trace);
}

void
Engine::setProfile(obs::ProfileRegistry *profile)
{
    profile_ = profile;
    mmu_->setProfile(profile);
}

void
Engine::setMemTelemetry(obs::MemTelemetry *tel)
{
    memTel_ = tel;
    as_->setMemTelemetry(tel);
}

void
Engine::registerStats(obs::StatRegistry &reg)
{
    obs::bindEngineStats(reg, "engine", &stats_);
    mmu_->registerStats(reg, "mmu");
    memsys_.registerStats(reg, "memsys");
    cycle_.registerStats(reg, "cycle");
    as_->registerStats(reg, "os");
}

SimStats
Engine::run()
{
    tps_assert(!workloads_.empty());
    {
        obs::ScopedTimer timer(profile_, obs::ProfPhase::Setup);
        for (auto *w : workloads_)
            w->setup(*this);
    }

    stats_ = SimStats{};
    SimStats &stats = stats_;
    stats.epochInterval = cfg_.epochAccesses;
    workloads::Workload &primary = *workloads_[0];
    unsigned primary_ipa = primary.info().instsPerAccess;
    uint64_t primary_accesses = 0;

    // The primary thread's first warmupAccesses() accesses are the
    // program initializing its memory; statistics reset afterwards so
    // the figures report steady-state behaviour.
    uint64_t warmup_target = primary.warmupAccesses();
    bool in_warmup = warmup_target > 0;

    // Epoch sampling: take_epoch() pushes the deltas since the last
    // boundary.
    EpochPrev eprev;
    auto take_epoch = [&]() {
        uint64_t walk_refs = mmu_->stats().walkMemRefs;
        uint64_t os_cycles = as_->osWork().totalCycles();
        EpochSample e;
        e.accesses = primary_accesses - eprev.accesses;
        e.instructions = e.accesses * (primary_ipa + 1);
        e.cycles = cycle_.cycles() - eprev.cycles;
        e.l1TlbMisses = stats.l1TlbMisses - eprev.l1TlbMisses;
        e.l2TlbHits = stats.l2TlbHits - eprev.l2TlbHits;
        e.walks = stats.tlbMisses - eprev.walks;
        e.walkMemRefs = walk_refs - eprev.walkMemRefs;
        e.walkCycles = stats.walkCycles - eprev.walkCycles;
        e.faults = stats.faults - eprev.faults;
        e.osCycles = os_cycles - eprev.osCycles;
        stats.epochs.push_back(e);
        eprev = EpochPrev{primary_accesses, stats.l1TlbMisses,
                          stats.l2TlbHits, stats.tlbMisses, walk_refs,
                          stats.walkCycles, stats.faults,
                          cycle_.cycles(), os_cycles};
        // Physical-memory telemetry rides the same boundary ordinals,
        // so its series is identical whichever step translated.
        if (memTel_)
            memTel_->sample(*as_, primary_accesses);
    };

    // Paranoid-mode support: periodic invariant sweeps and a
    // cooperative wall-clock budget, both tested on primary-access
    // boundaries so they cost one branch when disabled.  Frames an
    // external holder (the fragmenter) took straight from the buddy
    // allocator are snapshotted here as the accounting baseline.
    std::optional<check::InvariantChecker> checker;
    if (cfg_.checkEveryAccesses != 0) {
        check::InvariantChecker::Targets targets;
        targets.as = as_.get();
        targets.phys = &as_->phys();
        targets.tlb = &mmu_->tlbs();
        targets.exemptFrames =
            check::InvariantChecker::externallyHeldFrames(as_->phys());
        checker.emplace(targets);
    }
    uint64_t accesses_since_check = 0;
    uint64_t accesses_since_clock = 0;
    uint64_t trace_time = 0;
    std::chrono::steady_clock::time_point deadline{};
    if (cfg_.timeoutSeconds > 0.0) {
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           cfg_.timeoutSeconds));
    }

    // A chunk holds one access wherever a batch could reorder work.
    // Under SMT each thread takes one access per round: a competitor
    // that allocates in its refills (gcc's mmap/munmap churn) would
    // otherwise make those calls ahead of the primary's translations.
    // A non-batchable generator only promises next(), and the
    // reference step keeps its per-access boundary tests.
    size_t threads = workloads_.size();
    uint64_t chunk_cap = 1;
    if (!cfg_.referencePath && threads == 1 && primary.batchable())
        chunk_cap = std::max<uint64_t>(cfg_.chunkAccesses, 1);
    std::vector<MemAccess> buf(chunk_cap);
    std::vector<bool> exhausted(threads, false);

    bool running = true;
    while (running) {
        // Clamp the chunk so every boundary action -- the warmup stat
        // reset, maxAccesses stop, epoch snapshot and checker sweep --
        // lands on the exact primary-access ordinal at which a
        // one-access chunk takes it.
        uint64_t limit = chunk_cap;
        if (in_warmup) {
            limit = std::min(limit, warmup_target - primary_accesses);
        } else {
            // >= comparison in the stop test: when the cap is already
            // met (maxAccesses == 0), one more access still runs
            // before the stop.
            uint64_t rem = cfg_.maxAccesses > primary_accesses
                               ? cfg_.maxAccesses - primary_accesses
                               : 1;
            limit = std::min(limit, rem);
            if (cfg_.epochAccesses != 0)
                limit = std::min(
                    limit, cfg_.epochAccesses -
                               (primary_accesses - eprev.accesses));
        }
        if (checker)
            limit = std::min(limit, cfg_.checkEveryAccesses -
                                        accesses_since_check);

        size_t got;
        {
            obs::ScopedTimer timer(profile_,
                                   obs::ProfPhase::WorkloadNext);
            got = chunk_cap == 1
                      ? size_t(primary.next(buf[0]))
                      : primary.nextBatch(buf.data(),
                                          static_cast<size_t>(limit));
        }
        if (got == 0) {
            running = false;
        } else {
            ChunkDelta d;
            translate(buf.data(), got, trace_time, d);
            primary_accesses += got;
            stats.l1TlbMisses += d.l1TlbMisses;
            stats.l2TlbHits += d.l2TlbHits;
            stats.stlbPenaltyCycles += d.stlbPenaltyCycles;
            stats.tlbMisses += d.tlbMisses;
            stats.walkCycles += d.walkCycles;
            stats.faults += d.faults;

            if (in_warmup && primary_accesses >= warmup_target) {
                in_warmup = false;
                stats.warmup.accesses = primary_accesses;
                stats.warmup.cycles = cycle_.cycles();
                stats.warmup.osCycles = as_->osWork().totalCycles();
                stats.warmup.faults = stats.faults;
                primary_accesses = 0;
                stats.l1TlbMisses = 0;
                stats.l2TlbHits = 0;
                stats.tlbMisses = 0;
                stats.stlbPenaltyCycles = 0;
                stats.walkCycles = 0;
                stats.faults = 0;
                mmu_->clearStats();
                memsys_.clearStats();
                cycle_.reset();
                // Post-Mark events are the measured phase; the trace
                // clock itself is not reset.
                if (trace_)
                    trace_->mark(obs::kMarkWarmupEnd);
                // Epoch deltas restart at the measured phase; osWork
                // is not reset, so carry its baseline.
                eprev = EpochPrev{};
                eprev.osCycles = stats.warmup.osCycles;
                // Baseline telemetry sample at the seam.
                if (memTel_)
                    memTel_->sample(*as_, 0);
            } else if (!in_warmup &&
                       primary_accesses >= cfg_.maxAccesses) {
                running = false;
            }
            if (cfg_.epochAccesses != 0 && !in_warmup &&
                primary_accesses - eprev.accesses >=
                    cfg_.epochAccesses) {
                take_epoch();
            }
            if (checker) {
                accesses_since_check += got;
                if (accesses_since_check >= cfg_.checkEveryAccesses) {
                    accesses_since_check = 0;
                    checker->throwIfBad();
                }
            }
            // The wall-clock budget is inherently non-deterministic;
            // reading the clock costs enough that it waits for
            // kClockInterval primary accesses.
            if (cfg_.timeoutSeconds > 0.0) {
                accesses_since_clock += got;
                if (accesses_since_clock >= kClockInterval) {
                    accesses_since_clock = 0;
                    if (std::chrono::steady_clock::now() > deadline) {
                        throwSimError(ErrorKind::Timeout,
                                      "cell exceeded its %.3g s "
                                      "wall-clock budget",
                                      cfg_.timeoutSeconds);
                    }
                }
            }
        }

        // SMT round: after the primary's access, each live competitor
        // takes one, in the final round too.  Their translations share
        // every structure and the trace clock, but their deltas never
        // reach the primary-thread counters.
        for (size_t t = 1; t < threads; ++t) {
            if (exhausted[t])
                continue;
            MemAccess acc;
            bool more;
            {
                obs::ScopedTimer timer(profile_,
                                       obs::ProfPhase::WorkloadNext);
                more = workloads_[t]->next(acc);
            }
            if (!more) {
                exhausted[t] = true;
                continue;
            }
            ChunkDelta ignored;
            translate(&acc, 1, trace_time, ignored);
        }
    }

    // Flush the final (possibly short) epoch.
    if (cfg_.epochAccesses != 0 && primary_accesses > eprev.accesses)
        take_epoch();

    stats.accesses = primary_accesses;
    stats.instructions = primary_accesses * (primary_ipa + 1);
    stats.cycles = cycle_.cycles();
    stats.mmu = mmu_->stats();
    stats.walker = mmu_->walker().stats();
    stats.memsys = memsys_.stats();
    stats.osWork = as_->osWork();
    stats.buddy = as_->phys().buddy().stats();
    stats.compaction = as_->compactionStats();
    stats.mmapCalls = mmapCalls_;
    stats.munmapCalls = munmapCalls_;
    if (memTel_) {
        memTel_->sampleIfNew(*as_, primary_accesses);
        stats.mem = memTel_->data();
    }

    // Primary-thread walk references: in single-thread runs this is the
    // MMU total; under SMT we approximate by scaling with the primary's
    // share of walks (per-thread attribution of shared-walker refs).
    if (threads == 1) {
        stats.walkMemRefs = stats.mmu.walkMemRefs;
    } else {
        double share = ratio(stats.tlbMisses, stats.mmu.walks);
        stats.walkMemRefs = static_cast<uint64_t>(
            share * static_cast<double>(stats.mmu.walkMemRefs));
    }
    return stats;
}

void
Engine::referenceStep(const MemAccess *acc, size_t count,
                      uint64_t &trace_time, ChunkDelta &d)
{
    // The oracle: virtual TLB dispatch through Mmu::access and every
    // guard tested per access.  It shares no code with translateChunk,
    // so the differential suite compares two implementations.
    for (size_t i = 0; i < count; ++i) {
        // The trace clock is the global access ordinal (any thread),
        // 1-based, and keeps counting across the warmup boundary.
        if (trace_)
            trace_->setTime(++trace_time);
        MmuAccessResult res = mmu_->access(acc[i].va, acc[i].write);
        unsigned mem_cycles = memsys_.access(res.pa);
        unsigned translation = res.translationCycles;
        switch (cfg_.timing) {
          case TlbTimingMode::Real:
            break;
          case TlbTimingMode::PerfectL1:
            translation = 0;
            break;
          case TlbTimingMode::PerfectL2:
            translation = res.level == tlb::TlbHitLevel::L1
                              ? 0
                              : cfg_.mmu.stlbHitPenalty;
            break;
        }
        cycle_.onAccess(translation, mem_cycles, acc[i].dependsOnPrev);
        if (res.level != tlb::TlbHitLevel::L1) {
            ++d.l1TlbMisses;
            if (res.level == tlb::TlbHitLevel::L2) {
                ++d.l2TlbHits;
                d.stlbPenaltyCycles += translation;
            } else {
                ++d.tlbMisses;
                d.walkCycles += translation;
            }
        }
        if (res.faulted)
            ++d.faults;
    }
}

template <bool HasColt, bool HasSmall, int TpsKind, bool HasLarge,
          bool Traced>
void
Engine::translateChunk(const MemAccess *acc, size_t count,
                       uint64_t &trace_time, ChunkDelta &d)
{
    const TlbTimingMode timing = cfg_.timing;
    const unsigned stlb_penalty = cfg_.mmu.stlbHitPenalty;
    for (size_t i = 0; i < count; ++i) {
        // Same trace-clock semantics as the reference step: one tick
        // per access, advanced only while a trace is attached.
        if constexpr (Traced)
            trace_->setTime(++trace_time);
        MmuAccessResult res =
            mmu_->accessFast<HasColt, HasSmall, TpsKind, HasLarge>(
                acc[i].va, acc[i].write);
        unsigned mem_cycles = memsys_.access(res.pa);
        unsigned translation = res.translationCycles;
        if (timing == TlbTimingMode::PerfectL1)
            translation = 0;
        else if (timing == TlbTimingMode::PerfectL2)
            translation = res.level == tlb::TlbHitLevel::L1
                              ? 0
                              : stlb_penalty;
        cycle_.onAccess(translation, mem_cycles, acc[i].dependsOnPrev);
        if (res.level != tlb::TlbHitLevel::L1) {
            ++d.l1TlbMisses;
            if (res.level == tlb::TlbHitLevel::L2) {
                ++d.l2TlbHits;
                d.stlbPenaltyCycles += translation;
            } else {
                ++d.tlbMisses;
                d.walkCycles += translation;
            }
        }
        if (res.faulted) [[unlikely]]
            ++d.faults;
    }
}

void
Engine::translate(const MemAccess *acc, size_t count,
                  uint64_t &trace_time, ChunkDelta &d)
{
    obs::ScopedTimer timer(profile_, obs::ProfPhase::Translate);
    if (cfg_.referencePath) {
        referenceStep(acc, count, trace_time, d);
        return;
    }
    // One instantiation per (L1 structure set, traced) combination;
    // the selection runs once per chunk, not per access.
    bool traced = trace_ != nullptr;
    switch (mmu_->tlbs().design()) {
      case tlb::TlbDesign::Colt:
        if (traced)
            translateChunk<true, false, 0, true, true>(acc, count,
                                                       trace_time, d);
        else
            translateChunk<true, false, 0, true, false>(acc, count,
                                                        trace_time, d);
        break;
      case tlb::TlbDesign::Tps:
        if (cfg_.mmu.tlb.tpsTlbSkewed) {
            if (traced)
                translateChunk<false, true, 2, false, true>(
                    acc, count, trace_time, d);
            else
                translateChunk<false, true, 2, false, false>(
                    acc, count, trace_time, d);
        } else {
            if (traced)
                translateChunk<false, true, 1, false, true>(
                    acc, count, trace_time, d);
            else
                translateChunk<false, true, 1, false, false>(
                    acc, count, trace_time, d);
        }
        break;
      case tlb::TlbDesign::Baseline:
      case tlb::TlbDesign::Rmm:
        if (traced)
            translateChunk<false, true, 0, true, true>(acc, count,
                                                       trace_time, d);
        else
            translateChunk<false, true, 0, true, false>(acc, count,
                                                        trace_time, d);
        break;
    }
}

} // namespace tps::sim
