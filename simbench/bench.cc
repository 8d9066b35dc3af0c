#include "bench.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

#include "bench_stats.hh"
#include "cells.hh"
#include "obs/json.hh"
#include "spans.hh"
#include "util/rng.hh"

namespace simbench {

using tps::obs::Json;

namespace {

/** Measured passes a timed or traced run takes at the least. */
constexpr size_t kMinPasses = 3;

/** Failure messages kept in the result. */
constexpr size_t kMaxErrors = 8;

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// Host-noise diagnostics: recorded beside each run, never metrics.

/** Involuntary context switches of this thread and host steal time. */
struct HostCounters
{
    long involuntarySwitches = 0;
    double stealSeconds = 0;
};

HostCounters
readHostCounters()
{
    HostCounters h;
    rusage ru{};
    if (getrusage(RUSAGE_THREAD, &ru) == 0)
        h.involuntarySwitches = ru.ru_nivcsw;
    // "cpu user nice system idle iowait irq softirq steal ...", in
    // clock ticks summed over all CPUs.
    if (std::FILE *f = std::fopen("/proc/stat", "r")) {
        unsigned long long v[8] = {};
        if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]) == 8)
            h.stealSeconds = static_cast<double>(v[7]) /
                             static_cast<double>(sysconf(_SC_CLK_TCK));
        std::fclose(f);
    }
    return h;
}

/**
 * Thread CPU seconds of a fixed pointer chase through a 16 MB random
 * cycle: a host-speed reference taken between passes.  The buffer is
 * freed before the next pass so it never counts toward peak RSS.
 */
double
probeSeconds()
{
    constexpr size_t kSlots = (16u << 20) / sizeof(uint32_t);
    std::vector<uint32_t> next(kSlots);
    std::iota(next.begin(), next.end(), 0u);
    tps::Pcg32 rng(0x5eed, 0x9e3779b9);
    // Sattolo's shuffle: one cycle through every slot.
    for (size_t i = kSlots - 1; i > 0; --i)
        std::swap(next[i], next[rng.below(static_cast<uint32_t>(i))]);
    double t0 = threadCpuSeconds();
    uint32_t at = 0;
    for (size_t step = 0; step < (1u << 18); ++step)
        at = next[at];
    double t = threadCpuSeconds() - t0;
    volatile uint32_t sink = at;  // keeps the chase from being elided
    (void)sink;
    return t;
}

/** Reset VmHWM to the current RSS (Linux; a no-op elsewhere). */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** VmHWM in MB (0 when unreadable). */
double
peakRssMb()
{
    double mb = 0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            unsigned long long kb = 0;
            if (std::sscanf(line, "VmHWM: %llu", &kb) == 1)
                mb = static_cast<double>(kb) / 1024.0;
        }
        std::fclose(f);
    }
    return mb;
}

// ---------------------------------------------------------------------
// Correctness bookkeeping.

/** Counts attempted and failed cell runs into a RunResult. */
class Checker
{
  public:
    explicit Checker(RunResult &res) : res_(res) {}

    void attempt() { ++res_.attempted; }

    void
    fail(const std::string &what)
    {
        ++res_.failed;
        res_.correct = false;
        if (res_.errors.size() < kMaxErrors)
            res_.errors.push_back(what);
    }

  private:
    RunResult &res_;
};

std::string
treeOf(const CellResult &r)
{
    return r.tree.empty() ? r.stats.toJson().dump() : r.tree;
}

std::string
cellName(const CellSpec &c)
{
    std::string s = tps::core::cellLabel(c.opts);
    if (c.opts.smt)
        s += "/smt";
    if (c.opts.fragmented)
        s += "/fragmented";
    return s;
}

/** Accounting identities every cell run must satisfy ("" = ok). */
std::string
invariantError(const CellSpec &spec, const CellResult &r)
{
    if (r.counts.l1Hits + r.counts.l1Misses != r.stats.mmu.accesses)
        return "L1 hits + misses != MMU accesses";
    if (r.counts.stlbHits > r.counts.l1Misses)
        return "STLB hits exceed L1 misses";
    if (!spec.opts.smt &&
        r.accesses != r.stats.warmup.accesses + r.stats.accesses)
        return "generated accesses != simulated accesses";
    if (r.setupSeconds <= 0 || r.cpuSeconds < r.setupSeconds)
        return "set-up time outside the cell's CPU time";
    return {};
}

/** One pass: every cell of @p w once, in order. */
struct PassOut
{
    uint64_t accesses = 0;          //!< all cells, threads and warmup
    double cpuSeconds = 0;          //!< summed cell thread CPU
    std::vector<CellResult> cells;  //!< aligned with w.cells
};

/**
 * Run a pass, checking each cell's stat tree against @p ref_trees
 * (when given) and its accounting identities.  Cell ids for spans are
 * drawn from @p next_cell_id.
 */
PassOut
runPass(const BenchWorkload &w, uint64_t seed, SpanRecorder *spans,
        uint32_t &next_cell_id, Checker &chk,
        const std::vector<std::string> *ref_trees)
{
    PassOut out;
    for (size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &spec = w.cells[i];
        chk.attempt();
        CellResult r;
        try {
            r = runCell(spec, seed, spans, next_cell_id++);
        } catch (const std::exception &e) {
            chk.fail(cellName(spec) + ": " + e.what());
            out.cells.emplace_back();
            continue;
        }
        std::string err = invariantError(spec, r);
        if (err.empty() && ref_trees && treeOf(r) != (*ref_trees)[i])
            err = "stat tree differs from the run's first pass";
        if (!err.empty())
            chk.fail(cellName(spec) + ": " + err);
        out.accesses += r.accesses;
        out.cpuSeconds += r.cpuSeconds;
        out.cells.push_back(std::move(r));
    }
    return out;
}

std::vector<std::string>
treesOf(const PassOut &p)
{
    std::vector<std::string> t;
    for (const CellResult &r : p.cells)
        t.push_back(treeOf(r));
    return t;
}

// ---------------------------------------------------------------------
// Metrics.

/** The paper-gap metrics of one pass's cells. */
struct Fidelity
{
    double speedupGap = 0;
    double l1ElimGap = 0;
    double walkElimGap = 0;
};

/** The paper's means: TPS eliminates ~98% of L1 misses and walk refs. */
constexpr double kPaperL1ElimPercent = 98.0;
constexpr double kPaperWalkElimPercent = 98.0;

Fidelity
fidelity(const BenchWorkload &w, const std::vector<CellResult> &cells)
{
    using tps::core::Design;
    using tps::sim::TlbTimingMode;
    std::map<std::string, SpeedupCells> sets;
    for (size_t i = 0; i < w.cells.size(); ++i) {
        const tps::core::RunOptions &o = w.cells[i].opts;
        if (o.fragmented)
            continue;
        SpeedupCells &s = sets[o.workload];
        const tps::sim::SimStats *st = &cells[i].stats;
        if (o.design == Design::Thp) {
            if (o.timing == TlbTimingMode::Real)
                s.thp = st;
            else if (o.timing == TlbTimingMode::PerfectL2)
                s.perfectL2 = st;
            else
                s.perfectL1 = st;
        } else if (o.timing == TlbTimingMode::Real) {
            if (o.design == Design::Base4k)
                s.base4k = st;
            else if (o.design == Design::Tps)
                s.tps = st;
        }
    }
    double speedup = 0, l1 = 0, walk = 0;
    size_t n = 0;
    for (const auto &[name, s] : sets) {
        if (!s.thp || !s.perfectL2 || !s.perfectL1 || !s.base4k || !s.tps)
            continue;
        speedup += tpsSpeedupPercent(s);
        l1 += elimPercent(s.thp->l1TlbMisses, s.tps->l1TlbMisses);
        walk += elimPercent(s.thp->walkMemRefs, s.tps->walkMemRefs);
        ++n;
    }
    if (n == 0)
        throw std::logic_error("workload '" + w.name +
                               "' has no complete speedup cell set");
    double k = static_cast<double>(n);
    return {gapPp(speedup / k, w.paperSpeedupPercent),
            gapPp(l1 / k, kPaperL1ElimPercent),
            gapPp(walk / k, kPaperWalkElimPercent)};
}

LayerCounts
sumCounts(const std::vector<CellResult> &cells)
{
    LayerCounts k;
    for (const CellResult &r : cells)
        k += r.counts;
    return k;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/** The registry counts of a pass, for the timed run's record. */
Json
countsJson(const LayerCounts &k)
{
    Json j;
    j["engine.mmapCalls"] = k.mmapCalls;
    j["engine.munmapCalls"] = k.munmapCalls;
    j["os.work.faults"] = k.faults;
    j["os.work.promotions"] = k.promotions;
    j["os.work.reservationsCreated"] = k.reservationsCreated;
    j["os.buddy.splits"] = k.buddySplits;
    j["os.buddy.merges"] = k.buddyMerges;
    j["os.compaction.migratedFrames"] = k.compactionMigratedFrames;
    j["os.work.totalCycles"] = k.osWorkCycles;
    j["mmu.walks"] = k.walks;
    j["mmu.walk.memRefs"] = k.walkRefs;
    j["mmu.cache.hits"] = k.mmuCacheHits;
    j["mmu.l1.hits"] = k.l1Hits;
    j["mmu.l1.misses"] = k.l1Misses;
    j["mmu.l2.hits"] = k.stlbHits;
    j["mmu.faults"] = k.mmuFaults;
    j["engine.cycles"] = k.cycles;
    j["engine.instructions"] = k.instructions;
    j["memsys.dramAccesses"] = k.dramAccesses;
    return j;
}

/** Run-record helpers. */
Json
toJsonArray(const std::vector<double> &v)
{
    Json a = Json::array();
    for (double x : v)
        a.push(x);
    return a;
}

void
writeRecord(const BenchOptions &o, const std::string &tag,
            const Json &record, const SpanRecorder *spans)
{
    if (o.outDir.empty())
        return;
    std::string base = o.outDir + "/" + tag;
    std::ofstream(base + ".json") << record.dump(1) << "\n";
    if (spans) {
        if (std::FILE *f = std::fopen((base + "-spans.jsonl").c_str(), "w")) {
            spans->writeJsonLines(f);
            std::fclose(f);
        }
    }
}

std::string
runTag(const BenchOptions &o, const BenchWorkload &w)
{
    return w.name + "-seed" + std::to_string(o.seed) + "-trace" +
           (o.trace ? "1" : "0");
}

// ---------------------------------------------------------------------
// The three run kinds.

/**
 * Compare each cell at the default seed with core::runExperiment,
 * byte for byte; it also warms the heap before timing.
 */
void
crossCheck(const BenchWorkload &w, Checker &chk)
{
    for (const CellSpec &spec : w.cells) {
        chk.attempt();
        try {
            std::string mine = treeOf(runCell(spec, 0));
            std::string lib =
                tps::core::runExperiment(spec.opts).toJson().dump();
            if (mine != lib)
                chk.fail(cellName(spec) +
                         ": stat tree differs from core::runExperiment");
        } catch (const std::exception &e) {
            chk.fail(cellName(spec) + ": " + e.what());
        }
    }
}

RunResult
timedRun(const BenchWorkload &w, const BenchOptions &o)
{
    RunResult res;
    Checker chk(res);
    HostCounters h0 = readHostCounters();
    uint32_t ids = 0;
    crossCheck(w, chk);

    // Passes until --seconds have passed; each cell keeps its slowest
    // run (bench_stats.hh, CellFloor).  The first pass fixes the stat
    // trees the later ones must repeat.
    PassOut first;
    std::vector<std::string> trees;
    CellFloor floor;
    std::vector<double> probes, pass_rate;
    Json cell_cpu = Json::array(), cell_setup = Json::array();
    double start = wallSeconds();
    do {
        probes.push_back(probeSeconds());
        malloc_trim(0);
        resetPeakRss();
        PassOut p = runPass(w, o.seed, nullptr, ids, chk,
                            trees.empty() ? nullptr : &trees);
        std::vector<double> cpu, setup;
        for (size_t i = 0; i < p.cells.size(); ++i) {
            const CellResult &r = p.cells[i];
            floor.add(i, r.cpuSeconds, r.setupSeconds, r.windowNs);
            cpu.push_back(r.cpuSeconds);
            setup.push_back(r.setupSeconds);
        }
        cell_cpu.push(toJsonArray(cpu));
        cell_setup.push(toJsonArray(setup));
        pass_rate.push_back(ratio(static_cast<double>(p.accesses),
                                  p.cpuSeconds));
        if (trees.empty()) {
            trees = treesOf(p);
            first = std::move(p);
        }
    } while (pass_rate.size() < kMinPasses ||
             wallSeconds() - start < o.seconds);
    double rss = peakRssMb();
    HostCounters h1 = readHostCounters();

    Quantile p50 = quantile(floor.windowNs(), 0.5);
    Fidelity fid{};
    if (res.correct)
        fid = fidelity(w, first.cells);
    res.metrics = {
        {"sim_acc_per_cpu_s",
         ratio(static_cast<double>(first.accesses), floor.cpuSeconds()),
         "acc/s"},
        {"ns_per_access_p50", p50.value, "ns"},
        {"setup_s", floor.setupSeconds(), "s"},
        {"peak_rss_mb", rss, "MB"},
        {"tps_speedup_gap_pp", fid.speedupGap, "pp"},
        {"l1_miss_elim_gap_pp", fid.l1ElimGap, "pp"},
    };

    Json rec;
    rec["workload"] = w.name;
    rec["seed"] = o.seed;
    rec["passes"] = static_cast<uint64_t>(pass_rate.size());
    rec["pass_accesses"] = first.accesses;
    rec["pass_acc_per_cpu_s"] = toJsonArray(pass_rate);
    rec["cell_cpu_s"] = cell_cpu;
    rec["cell_setup_s"] = cell_setup;
    rec["windows"] = static_cast<uint64_t>(p50.samples);
    rec["counts"] = countsJson(sumCounts(first.cells));
    Json &diag = rec["diagnostics"];
    diag["probe_cpu_s"] = toJsonArray(probes);
    diag["involuntary_switches"] =
        static_cast<int64_t>(h1.involuntarySwitches - h0.involuntarySwitches);
    diag["steal_s"] = h1.stealSeconds - h0.stealSeconds;
    writeRecord(o, runTag(o, w), rec, nullptr);
    std::fprintf(stderr,
                 "%s: %zu passes, %zu window positions, median probe "
                 "%.4f s, %ld involuntary switches, %.2f s steal\n",
                 w.name.c_str(), pass_rate.size(), p50.samples,
                 median(probes),
                 h1.involuntarySwitches - h0.involuntarySwitches,
                 h1.stealSeconds - h0.stealSeconds);
    return res;
}

/** @p w with epoch sampling and memory telemetry switched off. */
BenchWorkload
withoutSampler(BenchWorkload w)
{
    for (CellSpec &c : w.cells) {
        c.opts.epochAccesses = 0;
        c.opts.memTelemetry = false;
    }
    return w;
}

bool
samples(const BenchWorkload &w)
{
    return std::any_of(w.cells.begin(), w.cells.end(), [](const CellSpec &c) {
        return c.opts.epochAccesses != 0 || c.opts.memTelemetry;
    });
}

RunResult
tracedRun(const BenchWorkload &w, const BenchOptions &o)
{
    RunResult res;
    Checker chk(res);
    uint32_t ids = 0;
    PassOut first = runPass(w, o.seed, nullptr, ids, chk, nullptr);
    std::vector<std::string> trees = treesOf(first);

    // Untraced and traced passes alternate, so the overhead estimate
    // sees the same host conditions on both sides.  Workloads whose
    // cells sample also run a traced pass with the sampler off.
    SpanRecorder spans, off_spans;
    BenchWorkload off = withoutSampler(w);
    bool sampled = samples(w);
    CellFloor untraced, traced;
    std::vector<double> traced_cpu;
    uint64_t traced_accesses = 0, init_accesses = 0, off_accesses = 0;
    double init_engine_s = 0;
    double start = wallSeconds();
    do {
        PassOut u = runPass(w, o.seed, nullptr, ids, chk, &trees);
        PassOut t = runPass(w, o.seed, &spans, ids, chk, &trees);
        for (size_t i = 0; i < w.cells.size(); ++i) {
            untraced.add(i, u.cells[i].cpuSeconds, 0, u.cells[i].windowNs);
            traced.add(i, t.cells[i].cpuSeconds, 0, {});
        }
        traced_cpu.push_back(t.cpuSeconds);
        traced_accesses += t.accesses;
        for (const CellResult &r : t.cells) {
            init_accesses += r.initAccesses;
            init_engine_s += r.initEngineSeconds;
        }
        if (sampled) {
            PassOut s = runPass(off, o.seed, &off_spans, ids, chk, nullptr);
            off_accesses += s.accesses;
        }
    } while (traced_cpu.size() < kMinPasses ||
             wallSeconds() - start < o.seconds);

    // Replay every cell once, layer by layer; its counts must match.
    double replay_t0 = threadCpuSeconds();
    uint64_t replay_accesses = 0;
    for (size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &spec = w.cells[i];
        chk.attempt();
        try {
            ReplayCounts rc = replayCell(spec, o.seed, &spans, ids++);
            replay_accesses += rc.accesses;
            if (!(rc == engineCounts(first.cells[i])))
                chk.fail(cellName(spec) +
                         ": replayed counts differ from the engine's");
        } catch (const std::exception &e) {
            chk.fail(cellName(spec) + ": replay: " + e.what());
        }
    }
    double traced_total_s =
        std::accumulate(traced_cpu.begin(), traced_cpu.end(), 0.0) +
        (threadCpuSeconds() - replay_t0);

    auto self = spans.selfSeconds();
    auto s = [&](SpanName n) { return self[static_cast<size_t>(n)]; };
    double passes = static_cast<double>(traced_cpu.size());
    double acc = static_cast<double>(traced_accesses);
    double racc = static_cast<double>(replay_accesses);
    double engine_ns = 1e9 * ratio(s(SpanName::SimEngine), acc);
    double translate_ns = 1e9 * ratio(s(SpanName::TlbTranslate), racc);
    double memsys_ns = 1e9 * ratio(s(SpanName::SimMemsys), racc);
    double cycle_ns = 1e9 * ratio(s(SpanName::SimCycle), racc);
    double sampler_ns = 0;
    if (sampled) {
        auto off_self = off_spans.selfSeconds();
        sampler_ns =
            engine_ns - 1e9 * ratio(off_self[static_cast<size_t>(
                                        SpanName::SimEngine)],
                                    static_cast<double>(off_accesses));
    }
    double covered = 0;
    for (size_t n = 0; n < kSpanNames; ++n) {
        if (n != static_cast<size_t>(SpanName::Cell) &&
            n != static_cast<size_t>(SpanName::Replay))
            covered += self[n];
    }

    LayerCounts k = sumCounts(first.cells);
    double walk_gap = res.correct ? fidelity(w, first.cells).walkElimGap : 0;
    uint64_t os_tps = 0, os_thp = 0;
    uint64_t accesses = 0, epochs = 0, tel = 0, events = 0, trace_bytes = 0,
             json_bytes = 0;
    for (size_t i = 0; i < w.cells.size(); ++i) {
        const CellResult &r = first.cells[i];
        const tps::core::RunOptions &opts = w.cells[i].opts;
        // TPS against THP cell for cell: real timing only, so THP's
        // perfect-TLB timing variants do not count thrice.
        if (opts.timing == tps::sim::TlbTimingMode::Real) {
            if (opts.design == tps::core::Design::Tps)
                os_tps += r.counts.osWorkCycles;
            else if (opts.design == tps::core::Design::Thp)
                os_thp += r.counts.osWorkCycles;
        }
        accesses += r.accesses;
        epochs += r.epochSamples;
        tel += r.telemetrySamples;
        events += r.traceEvents;
        trace_bytes += r.traceBytes;
        json_bytes += r.statsJsonBytes;
    }
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    res.metrics = {
        {"workloads.gen_ns_per_access",
         1e9 * ratio(s(SpanName::WorkloadsGen), acc), "ns"},
        {"workloads.accesses", d(accesses), "count"},
        {"workloads.mmap_calls", d(k.mmapCalls), "count"},
        {"workloads.munmap_calls", d(k.munmapCalls), "count"},
        {"core.assemble_s", s(SpanName::CoreAssemble) / passes, "s"},
        {"os.faults", d(k.faults), "count"},
        {"os.promotions", d(k.promotions), "count"},
        {"os.reservations_created", d(k.reservationsCreated), "count"},
        {"os.buddy_splits", d(k.buddySplits), "count"},
        {"os.buddy_merges", d(k.buddyMerges), "count"},
        {"os.compaction_migrated_frames", d(k.compactionMigratedFrames),
         "count"},
        {"os.work_cycles", d(k.osWorkCycles), "cycles"},
        {"os.tps_thp_os_cycle_ratio", ratio(d(os_tps), d(os_thp)), "ratio"},
        {"os.fault_path_ns",
         1e9 * ratio(init_engine_s, d(init_accesses)), "ns"},
        {"os.mmap_us", 1e6 * s(SpanName::OsMmap) / passes, "us"},
        {"os.munmap_us", 1e6 * s(SpanName::OsMunmap) / passes, "us"},
        {"os.fragmenter_s", s(SpanName::OsFragmenter) / passes, "s"},
        {"vm.walks", d(k.walks), "count"},
        {"vm.walk_refs", d(k.walkRefs), "count"},
        {"vm.walk_refs_per_walk", ratio(d(k.walkRefs), d(k.walks)), "ratio"},
        {"vm.mmu_cache_hits", d(k.mmuCacheHits), "count"},
        {"vm.walk_ref_elim_gap_pp", walk_gap, "pp"},
        {"tlb.l1_hits", d(k.l1Hits), "count"},
        {"tlb.l1_misses", d(k.l1Misses), "count"},
        {"tlb.stlb_hits", d(k.stlbHits), "count"},
        {"tlb.l1_hit_ratio", ratio(d(k.l1Hits), d(k.l1Hits + k.l1Misses)),
         "ratio"},
        {"tlb.translate_ns_per_access", translate_ns, "ns"},
        {"sim.cycles", d(k.cycles), "cycles"},
        {"sim.ipc", ratio(d(k.instructions), d(k.cycles)), "ratio"},
        {"sim.dram_accesses", d(k.dramAccesses), "count"},
        {"sim.engine_ns_per_access", engine_ns, "ns"},
        {"sim.memsys_ns_per_access", memsys_ns, "ns"},
        {"sim.cycle_ns_per_access", cycle_ns, "ns"},
        {"sim.loop_overhead_ns",
         engine_ns - translate_ns - memsys_ns - cycle_ns, "ns"},
        {"sim.window_ns_p90", quantile(untraced.windowNs(), 0.9).value, "ns"},
        {"sim.window_ns_p99", quantile(untraced.windowNs(), 0.99).value,
         "ns"},
        {"obs.epoch_samples", d(epochs), "count"},
        {"obs.telemetry_samples", d(tel), "count"},
        {"obs.trace_events", d(events), "count"},
        {"obs.trace_bytes", d(trace_bytes), "bytes"},
        {"obs.stats_json_bytes", d(json_bytes), "bytes"},
        {"obs.trace_encode_s", s(SpanName::ObsTraceEncode) / passes, "s"},
        {"obs.stats_json_s", s(SpanName::ObsStatsJson) / passes, "s"},
        {"obs.sampler_ns_per_access", sampler_ns, "ns"},
        {"bench.tracing_overhead_pct",
         100.0 * (traced.cpuSeconds() / untraced.cpuSeconds() - 1.0), "%"},
        {"bench.span_coverage_pct", 100.0 * ratio(covered, traced_total_s),
         "%"},
    };

    Json rec;
    rec["workload"] = w.name;
    rec["seed"] = o.seed;
    rec["traced_pass_cpu_s"] = toJsonArray(traced_cpu);
    rec["traced_cpu_s"] = traced_total_s;
    Quantile p90 = quantile(untraced.windowNs(), 0.9);
    rec["window_positions"] = static_cast<uint64_t>(p90.samples);
    rec["window_positions_beyond_p90"] = static_cast<uint64_t>(p90.beyond);
    Json &self_json = rec["self_s"];
    for (size_t n = 0; n < kSpanNames; ++n)
        self_json[spanName(static_cast<SpanName>(n))] = self[n];
    // Where the traced passes' CPU went, by layer (the replay aside).
    // Engine time on init-sweep accesses is the os fault path.
    double pass_s = std::accumulate(traced_cpu.begin(), traced_cpu.end(), 0.0);
    auto share = [&](double seconds) { return 100.0 * ratio(seconds, pass_s); };
    Json &shares = rec["layer_share_pct"];
    shares["os.fault_path"] = share(init_engine_s);
    shares["os.other"] = share(s(SpanName::OsMmap) + s(SpanName::OsMunmap) +
                               s(SpanName::OsFragmenter) +
                               s(SpanName::OsTeardown));
    shares["sim.engine_measured"] =
        share(s(SpanName::SimEngine) - init_engine_s);
    shares["workloads"] =
        share(s(SpanName::WorkloadsGen) + s(SpanName::WorkloadsSetup));
    shares["obs.serialize"] =
        share(s(SpanName::ObsStatsJson) + s(SpanName::ObsTraceEncode));
    shares["core"] = share(s(SpanName::CoreAssemble));
    shares["uncovered"] = share(s(SpanName::Cell) + s(SpanName::Setup));
    writeRecord(o, runTag(o, w), rec, &spans);
    return res;
}

/**
 * Check mode: every cell at the default seed and at @p seed -- twice
 * with identical trees, equal to core::runExperiment at the default
 * seed, and with replayed counts equal to the engine's.
 */
void
checkWorkload(const BenchWorkload &w, uint64_t seed, Checker &chk)
{
    std::vector<uint64_t> seeds = {0};
    if (seed != 0)
        seeds.push_back(seed);
    for (uint64_t sd : seeds) {
        for (const CellSpec &spec : w.cells) {
            chk.attempt();
            std::string where = w.name + " seed " + std::to_string(sd) +
                                " " + cellName(spec) + ": ";
            try {
                CellResult a = runCell(spec, sd);
                std::string tree = treeOf(a);
                std::string err = invariantError(spec, a);
                if (err.empty() && treeOf(runCell(spec, sd)) != tree)
                    err = "same seed twice gives different trees";
                if (err.empty() && sd == 0 &&
                    tps::core::runExperiment(spec.opts).toJson().dump() !=
                        tree)
                    err = "stat tree differs from core::runExperiment";
                if (err.empty() && !(replayCell(spec, sd) == engineCounts(a)))
                    err = "replayed counts differ from the engine's";
                if (!err.empty())
                    chk.fail(where + err);
            } catch (const std::exception &e) {
                chk.fail(where + e.what());
            }
        }
    }
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument(flag + " wants a non-negative integer, "
                                           "got '" + v + "'");
    try {
        return std::stoull(v);
    } catch (const std::out_of_range &) {
        throw std::invalid_argument(flag + " is out of range: '" + v + "'");
    }
}

} // namespace

BenchOptions
parseArgs(const std::vector<std::string> &args)
{
    BenchOptions o;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                throw std::invalid_argument(a + " needs a value");
            return args[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            benchWorkload(o.workload);  // rejects unknown names
        } else if (a == "--seed") {
            o.seed = parseUnsigned(a, value());
        } else if (a == "--seconds") {
            uint64_t s = parseUnsigned(a, value());
            if (s == 0 || s > 3600)
                throw std::invalid_argument("--seconds wants 1..3600");
            o.seconds = static_cast<double>(s);
        } else if (a == "--trace") {
            const std::string &v = value();
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace wants 0 or 1");
            o.trace = v == "1";
        } else if (a == "--check") {
            o.check = true;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--out-dir") {
            o.outDir = value();
        } else {
            throw std::invalid_argument("unknown argument '" + a + "'");
        }
    }
    if (o.workload.empty() && !o.check && !o.smoke)
        throw std::invalid_argument("--workload is required");
    return o;
}

RunResult
runBenchmark(const BenchOptions &opts)
{
    std::vector<std::string> names = benchWorkloadNames();
    if (!opts.workload.empty())
        names = {opts.workload};
    if (opts.check) {
        RunResult res;
        Checker chk(res);
        for (const std::string &n : names)
            checkWorkload(benchWorkload(n, opts.smoke), opts.seed, chk);
        res.metrics = {{"cells_failed", static_cast<double>(res.failed),
                        "count"}};
        return res;
    }
    if (names.size() == 1) {
        BenchWorkload w = benchWorkload(names[0], opts.smoke);
        return opts.trace ? tracedRun(w, opts) : timedRun(w, opts);
    }
    // Several workloads (smoke): concatenate, prefixing metric names.
    RunResult all;
    for (const std::string &n : names) {
        BenchOptions one = opts;
        one.workload = n;
        RunResult r = runBenchmark(one);
        all.correct = all.correct && r.correct;
        all.attempted += r.attempted;
        all.failed += r.failed;
        for (Metric &m : r.metrics)
            all.metrics.push_back({n + "." + m.name, m.value, m.unit});
        all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
    }
    return all;
}

std::string
resultJson(const RunResult &r)
{
    Json j;
    j["correct"] = r.correct;
    j["attempted"] = r.attempted;
    j["failed"] = r.failed;
    Json &m = j["metrics"];
    m = Json::object();
    for (const Metric &x : r.metrics) {
        Json &v = m[x.name];
        v["value"] = x.value;
        v["unit"] = x.unit;
    }
    return j.dump();
}

} // namespace simbench
