#include "cells.hh"

#include <ctime>
#include <optional>
#include <stdexcept>

#include "bench_stats.hh"
#include "obs/event_trace.hh"
#include "obs/mem_telemetry.hh"
#include "obs/stat_registry.hh"

namespace simbench {

using namespace tps;
using core::Design;

namespace {

constexpr uint64_t kMiB = 1ull << 20;

/** Accesses the engine translates per fast-path batch. */
constexpr uint64_t kBatchAccesses = 4096;

/** Sizes of one workload's cells. */
struct Sizing
{
    double scale = 1.0;        //!< access-count scale
    uint64_t footprint = 0;    //!< simulated footprint override
    uint64_t maxAccesses = ~0ull;
};

core::RunOptions
makeCell(const std::string &wl, Design d, const Sizing &z,
         sim::TlbTimingMode timing = sim::TlbTimingMode::Real)
{
    core::RunOptions o;
    o.workload = wl;
    o.design = d;
    o.scale = z.scale;
    o.footprintBytes = z.footprint;
    o.maxAccesses = z.maxAccesses;
    o.timing = timing;
    return o;
}

/**
 * The Fig. 13/14 speedup set of one benchmark, in the order the figure
 * pipeline runs it: THP, THP with perfect L2 and L1 TLBs, THP off, TPS.
 */
std::vector<core::RunOptions>
speedupSet(const std::string &wl, const Sizing &z)
{
    return {makeCell(wl, Design::Thp, z),
            makeCell(wl, Design::Thp, z, sim::TlbTimingMode::PerfectL2),
            makeCell(wl, Design::Thp, z, sim::TlbTimingMode::PerfectL1),
            makeCell(wl, Design::Base4k, z),
            makeCell(wl, Design::Tps, z)};
}

/**
 * steady-translate: the Fig. 13 cells of gups, mcf and xsbench.  The
 * footprint is cut so the first-touch sweep is a small share of a
 * cell's CPU, while THP's 64 huge pages still overflow its 32-entry
 * 2 MB L1 TLB (mcf rounds its arena down to a power of two, so 128 MB
 * is the least that does).
 */
BenchWorkload
steadyTranslate(bool smoke)
{
    Sizing z{smoke ? 0.01 : 0.5, (smoke ? 16 : 128) * kMiB};
    BenchWorkload w{"steady-translate", {}, 15.7};
    for (const char *wl : {"gups", "mcf", "xsbench"}) {
        for (core::RunOptions &o : speedupSet(wl, z))
            w.cells.push_back({o});
        w.cells.push_back({makeCell(wl, Design::Rmm, z)});
        w.cells.push_back({makeCell(wl, Design::Colt, z)});
    }
    return w;
}

/**
 * first-touch: large footprints with the measured phase capped, so the
 * init sweep -- one demand fault per access -- dominates.  tps-eager
 * maps at mmap time instead, and the fragmented pair moves OS work
 * into set-up.  The full speedup set keeps the paper-gap metrics
 * defined here too; its perfect-TLB cells take the same faults.
 */
BenchWorkload
firstTouch(bool smoke)
{
    Sizing z{1.0, (smoke ? 16 : 384) * kMiB, smoke ? 4096u : 40000u};
    BenchWorkload w{"first-touch", {}, 15.7};
    for (const char *wl : {"gups", "mcf", "xsbench"}) {
        for (core::RunOptions &o : speedupSet(wl, z))
            w.cells.push_back({o});
        w.cells.push_back({makeCell(wl, Design::TpsEager, z)});
    }
    for (Design d : {Design::Thp, Design::Tps}) {
        core::RunOptions o = makeCell("xsbench", d, z);
        o.fragmented = true;
        w.cells.push_back({o});
    }
    return w;
}

/**
 * smt-observed: the Fig. 14 cells of mcf and xsbench with a competing
 * SMT thread (the per-access reference loop), every cell sampling
 * epochs and memory telemetry and serializing its stat tree; the
 * xsbench THP/TPS pair also records and encodes an event trace.
 */
BenchWorkload
smtObserved(bool smoke)
{
    Sizing z{smoke ? 0.01 : 0.15, (smoke ? 16 : 128) * kMiB};
    BenchWorkload w{"smt-observed", {}, 21.6};
    for (const char *wl : {"mcf", "xsbench"}) {
        for (core::RunOptions &o : speedupSet(wl, z)) {
            o.smt = true;
            // Two workload instances: the figure benches double the
            // physical memory too.
            o.physBytes *= 2;
            // The epoch interval the README and CI examples use.
            o.epochAccesses = smoke ? 4096 : 20000;
            o.memTelemetry = true;
            CellSpec c{o};
            c.statsJson = true;
            c.eventTrace = std::string(wl) == "xsbench" &&
                           o.timing == sim::TlbTimingMode::Real &&
                           (o.design == Design::Thp ||
                            o.design == Design::Tps);
            w.cells.push_back(c);
        }
    }
    return w;
}

/**
 * Times the engine loop from the workload side.  Untraced, it reads
 * the thread CPU clock about once per 4096 accesses to build the
 * window series.  Traced, it brackets generator calls with the steady
 * clock and records one sim.engine span per window, with the window's
 * generator time as an aggregate child.  Batch calls are all timed.
 * The per-access calls of the SMT loop are timed one in
 * kSampleEvery, together with the engine gap after them, and scaled
 * up: timing every call would add two clock reads to an access that
 * costs a few hundred ns.
 */
class LoopProbe
{
  public:
    static constexpr uint64_t kSampleEvery = 8;

    LoopProbe(SpanRecorder *spans, uint32_t cell, int32_t cell_span,
              int32_t setup_span, uint64_t window_accesses)
        : windows(window_accesses), spans_(spans), cell_(cell),
          cellSpan_(cell_span), setupSpan_(setup_span),
          windowLimit_(window_accesses)
    {}

    void
    beforeGen(bool per_access)
    {
        if (!spans_) {
            if (first_) {
                first_ = false;
                firstAccessCpu = threadCpuSeconds();
                windows.start(firstAccessCpu * 1e9);
            } else if (pending_ >= kBatchAccesses) {
                windows.advance(pending_, threadCpuSeconds() * 1e9);
                pending_ = 0;
            }
            return;
        }
        timed_ = !per_access || calls_++ % kSampleEvery == 0;
        if (!timed_ && !gapOpen_)
            return;
        int64_t t = SpanRecorder::now();
        if (first_) {
            first_ = false;
            firstAccessCpu = threadCpuSeconds();
            spans_->close(setupSpan_);
            openWindow(t);
        } else {
            if (gapOpen_ && lastInit_)
                initEngineNs_ += (t - lastExit_) * weight_;
            gapOpen_ = false;
            if (windowAccesses_ >= windowLimit_) {
                closeWindow(t);
                openWindow(t);
            }
        }
        if (timed_) {
            genStart_ = t;
            weight_ = per_access ? kSampleEvery : 1;
            inGen_ = true;
        }
    }

    void
    afterGen(uint64_t n, bool init)
    {
        accesses += n;
        if (init)
            initAccesses += n;
        if (!spans_) {
            pending_ += n;
            return;
        }
        windowAccesses_ += n;
        if (!timed_)
            return;
        int64_t t = SpanRecorder::now();
        genNs_ += (t - genStart_) * weight_;
        lastExit_ = t;
        lastInit_ = init;
        gapOpen_ = true;
        inGen_ = false;
    }

    /** The engine returned: close the last window. */
    void
    finish()
    {
        if (!spans_ || first_)
            return;
        int64_t t = SpanRecorder::now();
        if (gapOpen_ && lastInit_)
            initEngineNs_ += (t - lastExit_) * weight_;
        closeWindow(t);
    }

    /** Parent for OS calls made now: the generator aggregate if inside it. */
    int32_t
    allocParent() const
    {
        return inGen_ ? genSpan_ : spans_->current();
    }

    double initEngineSeconds() const { return initEngineNs_ * 1e-9; }

    double firstAccessCpu = 0;
    uint64_t accesses = 0;
    uint64_t initAccesses = 0;
    WindowSeries windows;

  private:
    void
    openWindow(int64_t t)
    {
        windowSpan_ = spans_->add(SpanName::SimEngine, cell_, cellSpan_, t, t);
        genSpan_ = spans_->add(SpanName::WorkloadsGen, cell_, windowSpan_,
                               t, t);
        windowStart_ = t;
        genNs_ = 0;
        windowAccesses_ = 0;
    }

    void
    closeWindow(int64_t t)
    {
        spans_->setEnd(windowSpan_, t);
        spans_->setEnd(genSpan_, windowStart_ + genNs_);
    }

    SpanRecorder *spans_;
    uint32_t cell_;
    int32_t cellSpan_;
    int32_t setupSpan_;
    uint64_t windowLimit_;
    bool first_ = true;
    uint64_t pending_ = 0;
    uint64_t calls_ = 0;
    bool timed_ = false;     //!< the current generator call is timed
    bool gapOpen_ = false;   //!< the engine gap after a timed call is open
    bool inGen_ = false;
    bool lastInit_ = false;
    int64_t weight_ = 1;     //!< calls a timed call stands for
    int64_t genStart_ = 0;
    int64_t lastExit_ = 0;
    int64_t genNs_ = 0;
    int64_t initEngineNs_ = 0;
    int64_t windowStart_ = 0;
    uint64_t windowAccesses_ = 0;
    int32_t windowSpan_ = -1;
    int32_t genSpan_ = -1;
};

/**
 * A forwarding Workload and AllocApi: every call goes to the wrapped
 * generator or the engine unchanged, bracketed by the probe and, when
 * tracing, by spans.  Batching and the init-sweep length are
 * forwarded, so the engine takes the same path as for the bare
 * workload.
 */
class ProbedWorkload final : public workloads::Workload,
                             private sim::AllocApi
{
  public:
    ProbedWorkload(workloads::Workload &inner, LoopProbe &probe,
                   SpanRecorder *spans, uint32_t cell)
        : inner_(inner), probe_(probe), spans_(spans), cell_(cell)
    {}

    const workloads::WorkloadInfo &info() const override
    {
        return inner_.info();
    }
    bool batchable() const override { return inner_.batchable(); }
    uint64_t warmupAccesses() const override { return warmup_; }

    void
    setup(sim::AllocApi &api) override
    {
        api_ = &api;
        SpanScope span(spans_, SpanName::WorkloadsSetup, cell_);
        inner_.setup(*this);
        // Arenas are registered during setup; re-read the sweep length.
        warmup_ = inner_.warmupAccesses();
    }

    bool
    next(sim::MemAccess &out) override
    {
        bool init = emitted_ < warmup_;
        probe_.beforeGen(true);
        bool more = inner_.next(out);
        probe_.afterGen(more ? 1 : 0, init);
        emitted_ += more ? 1 : 0;
        return more;
    }

    size_t
    nextBatch(sim::MemAccess *out, size_t max) override
    {
        bool init = emitted_ < warmup_;
        probe_.beforeGen(false);
        size_t n = inner_.nextBatch(out, max);
        probe_.afterGen(n, init);
        emitted_ += n;
        return n;
    }

  private:
    vm::Vaddr
    mmap(uint64_t bytes) override
    {
        if (!spans_)
            return api_->mmap(bytes);
        int64_t t0 = SpanRecorder::now();
        vm::Vaddr va = api_->mmap(bytes);
        spans_->add(SpanName::OsMmap, cell_, probe_.allocParent(), t0,
                    SpanRecorder::now());
        return va;
    }

    void
    munmap(vm::Vaddr start) override
    {
        if (!spans_)
            return api_->munmap(start);
        int64_t t0 = SpanRecorder::now();
        api_->munmap(start);
        spans_->add(SpanName::OsMunmap, cell_, probe_.allocParent(), t0,
                    SpanRecorder::now());
    }

    workloads::Workload &inner_;
    LoopProbe &probe_;
    SpanRecorder *spans_;
    uint32_t cell_;
    sim::AllocApi *api_ = nullptr;
    uint64_t warmup_ = 0;
    uint64_t emitted_ = 0;
};

LayerCounts
readCounts(sim::Engine &engine)
{
    obs::StatRegistry reg;
    engine.registerStats(reg);
    auto c = [&](const char *name) { return reg.counter(name); };
    LayerCounts k;
    k.mmapCalls = c("engine.mmapCalls");
    k.munmapCalls = c("engine.munmapCalls");
    k.faults = c("os.work.faults");
    k.promotions = c("os.work.promotions");
    k.reservationsCreated = c("os.work.reservationsCreated");
    k.buddySplits = c("os.buddy.splits");
    k.buddyMerges = c("os.buddy.merges");
    k.compactionMigratedFrames = c("os.compaction.migratedFrames");
    k.osWorkCycles = c("os.work.totalCycles");
    k.walks = c("mmu.walks");
    k.walkRefs = c("mmu.walk.memRefs");
    k.mmuCacheHits = c("mmu.cache.hits.l2") + c("mmu.cache.hits.l3") +
                     c("mmu.cache.hits.l4");
    k.l1Hits = c("mmu.l1.hits");
    k.l1Misses = c("mmu.l1.misses");
    k.stlbHits = c("mmu.l2.hits");
    k.mmuFaults = c("mmu.faults");
    k.cycles = c("engine.cycles");
    k.instructions = c("engine.instructions");
    k.dramAccesses = c("memsys.dramAccesses");
    return k;
}

/** Latency the cycle model sees for one translation (Engine's rule). */
unsigned
timedTranslation(const sim::MmuAccessResult &res, sim::TlbTimingMode mode,
                 unsigned stlb_penalty)
{
    switch (mode) {
      case sim::TlbTimingMode::Real:
        break;
      case sim::TlbTimingMode::PerfectL1:
        return 0;
      case sim::TlbTimingMode::PerfectL2:
        return res.level == tlb::TlbHitLevel::L1 ? 0 : stlb_penalty;
    }
    return res.translationCycles;
}

/**
 * The engine's access order, regenerated: round-robin over the
 * threads, the primary's warmup reset and its maxAccesses stop, as in
 * Engine::runReference (which the batched fast path reproduces
 * exactly for a single thread).
 */
class StreamReplica
{
  public:
    StreamReplica(std::vector<workloads::Workload *> threads,
                  uint64_t max_accesses)
        : threads_(std::move(threads)), done_(threads_.size(), false),
          warmup_(threads_[0]->warmupAccesses()),
          inWarmup_(warmup_ > 0), max_(max_accesses)
    {}

    /**
     * The next access; @p seam is set when the warmup reset follows it.
     * @return false at the end of the run.
     */
    bool
    next(sim::MemAccess &out, bool &seam)
    {
        seam = false;
        for (;;) {
            if (t_ == threads_.size())
                t_ = 0;
            if (t_ == 0 && !running_)
                return false;
            size_t cur = t_++;
            if (done_[cur])
                continue;
            if (!threads_[cur]->next(out)) {
                done_[cur] = true;
                if (cur == 0)
                    running_ = false;
                continue;
            }
            if (cur == 0) {
                ++primary_;
                if (inWarmup_ && primary_ >= warmup_) {
                    inWarmup_ = false;
                    primary_ = 0;
                    seam = true;
                } else if (!inWarmup_ && primary_ >= max_) {
                    running_ = false;
                    done_[0] = true;
                }
            }
            return true;
        }
    }

  private:
    std::vector<workloads::Workload *> threads_;
    std::vector<bool> done_;
    uint64_t warmup_;
    bool inWarmup_;
    uint64_t max_;
    size_t t_ = 0;
    bool running_ = true;
    uint64_t primary_ = 0;
};

} // namespace

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    mmapCalls += o.mmapCalls;
    munmapCalls += o.munmapCalls;
    faults += o.faults;
    promotions += o.promotions;
    reservationsCreated += o.reservationsCreated;
    buddySplits += o.buddySplits;
    buddyMerges += o.buddyMerges;
    compactionMigratedFrames += o.compactionMigratedFrames;
    osWorkCycles += o.osWorkCycles;
    walks += o.walks;
    walkRefs += o.walkRefs;
    mmuCacheHits += o.mmuCacheHits;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    stlbHits += o.stlbHits;
    mmuFaults += o.mmuFaults;
    cycles += o.cycles;
    instructions += o.instructions;
    dramAccesses += o.dramAccesses;
    return *this;
}

const std::vector<std::string> &
benchWorkloadNames()
{
    static const std::vector<std::string> names = {
        "steady-translate", "first-touch", "smt-observed"};
    return names;
}

BenchWorkload
benchWorkload(const std::string &name, bool smoke)
{
    BenchWorkload w;
    if (name == "steady-translate")
        w = steadyTranslate(smoke);
    else if (name == "first-touch")
        w = firstTouch(smoke);
    else if (name == "smt-observed")
        w = smtObserved(smoke);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    if (smoke) {
        for (CellSpec &c : w.cells)
            c.windowAccesses = 1024;
    }
    return w;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

CellResult
runCell(const CellSpec &spec, uint64_t seed, SpanRecorder *spans,
        uint32_t cell_id)
{
    const core::RunOptions &opts = spec.opts;
    CellResult r;
    double t0 = threadCpuSeconds();
    {
        SpanScope cell_span(spans, SpanName::Cell, cell_id);
        int32_t cell_sid = spans ? spans->current() : -1;
        int32_t setup_sid =
            spans ? spans->open(SpanName::Setup, cell_id) : -1;
        LoopProbe probe(spans, cell_id, cell_sid, setup_sid,
                        spec.windowAccesses);

        // Declaration order follows core::runExperiment: the telemetry
        // probe and the event trace outlive the engine, whose
        // address-space teardown still reports unmaps to them.
        std::optional<os::PhysMemory> pm;
        std::optional<os::Fragmenter> fragmenter;
        std::optional<obs::MemTelemetry> tel;
        std::optional<obs::EventTrace> trace;
        std::optional<sim::Engine> engine;
        std::unique_ptr<workloads::Workload> primary, competitor;
        {
            SpanScope s(spans, SpanName::CoreAssemble, cell_id);
            pm.emplace(core::effectivePhysBytes(opts), opts.denseState);
        }
        if (opts.fragmented) {
            SpanScope s(spans, SpanName::OsFragmenter, cell_id);
            fragmenter.emplace(*pm, opts.fragmenter);
            fragmenter->run();
        }
        uint64_t wseed = workloadSeed(core::runSeed(opts), seed);
        {
            SpanScope s(spans, SpanName::CoreAssemble, cell_id);
            sim::EngineConfig ecfg = core::makeEngineConfig(opts);
            primary = workloads::makeWorkload(opts.workload, opts.scale,
                                              wseed, opts.footprintBytes);
            engine.emplace(*pm,
                           core::makePolicy(opts.design, opts.tpsThreshold),
                           ecfg);
            if (spec.eventTrace)
                engine->setEventTrace(&trace.emplace());
            if (opts.memTelemetry)
                engine->setMemTelemetry(&tel.emplace());
            if (opts.smt)
                competitor = workloads::makeWorkload(
                    opts.workload, opts.scale, wseed + 1000,
                    opts.footprintBytes);
        }
        ProbedWorkload p0(*primary, probe, spans, cell_id);
        engine->addWorkload(p0);
        std::optional<ProbedWorkload> p1;
        if (competitor)
            engine->addWorkload(p1.emplace(*competitor, probe, spans,
                                           cell_id));
        r.stats = engine->run();
        probe.finish();

        if (trace) {
            SpanScope s(spans, SpanName::ObsTraceEncode, cell_id);
            std::string blob = obs::encodeEvents(trace->events());
            r.traceEvents = trace->size();
            r.traceBytes = blob.size();
        }
        if (spec.statsJson) {
            SpanScope s(spans, SpanName::ObsStatsJson, cell_id);
            r.tree = r.stats.toJson().dump();
            r.statsJsonBytes = r.tree.size();
        }
        r.counts = readCounts(*engine);
        {
            SpanScope s(spans, SpanName::OsTeardown, cell_id);
            engine.reset();
            fragmenter.reset();
            pm.reset();
        }
        r.accesses = probe.accesses;
        r.initAccesses = probe.initAccesses;
        r.setupSeconds = probe.firstAccessCpu - t0;
        r.windowNs = probe.windows.nsPerAccess();
        r.initEngineSeconds = probe.initEngineSeconds();
    }
    r.cpuSeconds = threadCpuSeconds() - t0;
    r.epochSamples = r.stats.epochs.size();
    r.telemetrySamples = r.stats.mem.samples.size();
    return r;
}

ReplayCounts
engineCounts(const CellResult &run)
{
    ReplayCounts c;
    c.accesses = run.accesses;
    c.l1Hits = run.counts.l1Hits;
    c.l1Misses = run.counts.l1Misses;
    c.stlbHits = run.counts.stlbHits;
    c.walks = run.counts.walks;
    c.mmuFaults = run.counts.mmuFaults;
    c.osFaults = run.counts.faults;
    return c;
}

ReplayCounts
replayCell(const CellSpec &spec, uint64_t seed, SpanRecorder *spans,
           uint32_t cell_id)
{
    const core::RunOptions &opts = spec.opts;
    SpanScope replay_span(spans, SpanName::Replay, cell_id);

    std::optional<os::PhysMemory> pm;
    std::optional<os::Fragmenter> fragmenter;
    std::optional<sim::Engine> engine;
    std::vector<std::unique_ptr<workloads::Workload>> threads;
    sim::EngineConfig ecfg;
    {
        SpanScope s(spans, SpanName::ReplaySetup, cell_id);
        pm.emplace(core::effectivePhysBytes(opts), opts.denseState);
        if (opts.fragmented) {
            fragmenter.emplace(*pm, opts.fragmenter);
            fragmenter->run();
        }
        ecfg = core::makeEngineConfig(opts);
        uint64_t wseed = workloadSeed(core::runSeed(opts), seed);
        engine.emplace(*pm, core::makePolicy(opts.design, opts.tpsThreshold),
                       ecfg);
        threads.push_back(workloads::makeWorkload(
            opts.workload, opts.scale, wseed, opts.footprintBytes));
        if (opts.smt)
            threads.push_back(workloads::makeWorkload(
                opts.workload, opts.scale, wseed + 1000,
                opts.footprintBytes));
        for (auto &w : threads)
            w->setup(*engine);
    }

    std::vector<workloads::Workload *> raw;
    for (auto &w : threads)
        raw.push_back(w.get());
    StreamReplica stream(raw, ecfg.maxAccesses);
    sim::Mmu &mmu = engine->mmu();
    sim::MemSys &memsys = engine->memsys();
    sim::CycleModel cycle(ecfg.cycle);

    std::vector<sim::MemAccess> acc(kBatchAccesses);
    std::vector<sim::MmuAccessResult> res(kBatchAccesses);
    std::vector<unsigned> mem(kBatchAccesses);
    ReplayCounts out;
    bool more = true;
    while (more) {
        size_t n = 0;
        bool seam = false;
        {
            SpanScope s(spans, SpanName::ReplayGen, cell_id);
            while (n < kBatchAccesses && !seam &&
                   (more = stream.next(acc[n], seam)))
                ++n;
        }
        {
            SpanScope s(spans, SpanName::TlbTranslate, cell_id);
            for (size_t i = 0; i < n; ++i)
                res[i] = mmu.access(acc[i].va, acc[i].write);
        }
        {
            SpanScope s(spans, SpanName::SimMemsys, cell_id);
            for (size_t i = 0; i < n; ++i)
                mem[i] = memsys.access(res[i].pa);
        }
        {
            SpanScope s(spans, SpanName::SimCycle, cell_id);
            for (size_t i = 0; i < n; ++i)
                cycle.onAccess(timedTranslation(res[i], ecfg.timing,
                                                ecfg.mmu.stlbHitPenalty),
                               mem[i], acc[i].dependsOnPrev);
        }
        out.accesses += n;
        if (seam) {
            mmu.clearStats();
            memsys.clearStats();
            cycle.reset();
        }
    }
    const sim::MmuStats &m = mmu.stats();
    out.l1Hits = m.l1Hits;
    out.l1Misses = m.l1Misses;
    out.stlbHits = m.l2Hits;
    out.walks = m.walks;
    out.mmuFaults = m.faults;
    out.osFaults = engine->addressSpace().osWork().faults;
    {
        SpanScope s(spans, SpanName::OsTeardown, cell_id);
        engine.reset();
        fragmenter.reset();
        pm.reset();
    }
    return out;
}

} // namespace simbench
