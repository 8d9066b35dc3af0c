/**
 * @file
 * Simulator throughput baseline: measures simulated accesses per host
 * second for a fixed set of (workload, design) cells and writes a
 * BENCH_<date>.json snapshot.  CI runs it on a smoke configuration and
 * compares against the committed BENCH_baseline.json, failing on a
 * >20% geomean-or-per-cell regression, so a change that silently makes
 * the simulator much slower is caught in review, not in a sweep that
 * suddenly takes all night.
 *
 *   perf_baseline [--out=<path>] [--compare=<path>] [--tolerance=<f>]
 *                 [--rss-tolerance=<f>] [--scale=<f>]
 *                 [--benchmarks=a,b,c] [--repeat=<n>]
 *                 [--footprint=<size[kmgt]>] [--rss-budget=<size[kmgt]>]
 *                 [--trace-overhead]
 *
 * Each cell is measured --repeat times (default 3) and the fastest run
 * is kept: best-of-N converges on the machine's ceiling, so scheduler
 * noise mostly cancels between a baseline and a comparison run.
 * --compare gates on the *geomean* across the cells both files share
 * (per-cell changes are printed but informative only: single cells
 * swing tens of percent on a loaded host, and a real simulator
 * regression moves all of them).  It refuses to compare across
 * different --scale values (throughput depends on the workload size).
 * --trace-overhead additionally runs every cell with an event trace
 * attached and reports the recording overhead.
 *
 * Every cell also self-measures its peak host RSS (the kernel's VmHWM
 * high-water mark, reset per cell via /proc/self/clear_refs), so the
 * snapshot doubles as a memory baseline: --compare gates the geomean
 * RSS across shared cells at --rss-tolerance (growth allowed up to the
 * tolerance; cells whose baseline lacks RSS keys are skipped), and
 * --rss-budget fails the run outright if any cell's peak RSS exceeds
 * the budget -- the CI guard for the sparse simulator state.
 * --footprint overrides each workload's footprint, as in the figure
 * benches.
 *
 * Output schema ("tps-perf-baseline", version 1):
 *   { "format": "tps-perf-baseline", "version": 1, "scale": <f>,
 *     "cells": [ { "workload": "...", "design": "...",
 *                  "accesses": <n>, "seconds": <f>,
 *                  "accessesPerSec": <f>,
 *                  "hostRssBytes": <n> } ], ... ],
 *     "geomeanAccessesPerSec": <f> }
 * hostRssBytes (and the optional top-level "footprintBytes") are
 * host-side measurements, never part of run manifests; they appear
 * only when the platform can measure them (Linux procfs).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/tps_system.hh"
#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "util/logging.hh"
#include "util/sim_error.hh"
#include "util/stats.hh"

using namespace tps;

namespace {

struct Args
{
    std::string out;
    std::string compare;
    double tolerance = 0.2;
    double rssTolerance = 0.25;
    double scale = 1.0;
    std::vector<std::string> benchmarks;
    unsigned repeat = 3;
    bool traceOverhead = false;
    uint64_t footprintBytes = 0;
    uint64_t rssBudgetBytes = 0;
};

bool
parseU64(const char *s, uint64_t *out)
{
    if (*s == '\0')
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0')
        return false;
    *out = v;
    return true;
}

bool
parseF64(const char *s, double *out)
{
    if (*s == '\0')
        return false;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0')
        return false;
    *out = v;
    return true;
}

/** Byte size with an optional k/m/g/t (binary) suffix. */
bool
parseSize(const char *s, uint64_t *out)
{
    size_t len = std::strlen(s);
    if (len == 0)
        return false;
    unsigned shift = 0;
    switch (s[len - 1] | 0x20) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
      case 't': shift = 40; break;
      default: break;
    }
    std::string digits(s, shift ? len - 1 : len);
    uint64_t v = 0;
    if (!parseU64(digits.c_str(), &v))
        return false;
    if (shift && v > (~0ull >> shift))
        return false;
    *out = v << shift;
    return true;
}

/**
 * Return free heap to the OS, so that buffers freed by an earlier cell
 * (a --trace-overhead run's event trace, say) do not stay resident and
 * count toward the next cell's peak RSS.  glibc only; a no-op elsewhere.
 */
void
trimHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/**
 * Reset the process's peak-RSS high-water mark so the next
 * readPeakRssBytes() reflects only allocations from here on.  Linux
 * only ("5" to /proc/self/clear_refs); harmless elsewhere.
 */
void
resetPeakRss()
{
    if (FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/**
 * Peak host RSS in bytes: VmHWM from /proc/self/status (resettable,
 * the per-cell measurement), falling back to getrusage's lifetime
 * ru_maxrss; 0 when neither is available.
 */
uint64_t
readPeakRssBytes()
{
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            unsigned long long kb = 0;
            if (std::sscanf(line, "VmHWM: %llu", &kb) == 1) {
                std::fclose(f);
                return kb * 1024ull;
            }
        }
        std::fclose(f);
    }
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        return static_cast<uint64_t>(ru.ru_maxrss) * 1024ull;
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--out=", 6) == 0) {
            args.out = arg + 6;
        } else if (std::strncmp(arg, "--compare=", 10) == 0) {
            args.compare = arg + 10;
        } else if (std::strncmp(arg, "--tolerance=", 12) == 0) {
            // 0 is a valid ratchet: fail on any geomean below baseline.
            if (!parseF64(arg + 12, &args.tolerance) ||
                args.tolerance < 0 || args.tolerance >= 1) {
                tps_fatal("bad --tolerance value '%s'", arg + 12);
            }
        } else if (std::strncmp(arg, "--scale=", 8) == 0) {
            if (!parseF64(arg + 8, &args.scale) || args.scale <= 0)
                tps_fatal("bad --scale value '%s'", arg + 8);
        } else if (std::strncmp(arg, "--benchmarks=", 13) == 0) {
            std::string list = arg + 13;
            size_t pos = 0;
            while (pos != std::string::npos) {
                size_t comma = list.find(',', pos);
                std::string name =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                if (!name.empty())
                    args.benchmarks.push_back(name);
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
            uint64_t repeat = 0;
            if (!parseU64(arg + 9, &repeat) || repeat == 0 ||
                repeat > 100) {
                tps_fatal("bad --repeat value '%s'", arg + 9);
            }
            args.repeat = static_cast<unsigned>(repeat);
        } else if (std::strcmp(arg, "--trace-overhead") == 0) {
            args.traceOverhead = true;
        } else if (std::strncmp(arg, "--rss-tolerance=", 16) == 0) {
            if (!parseF64(arg + 16, &args.rssTolerance) ||
                args.rssTolerance < 0 || args.rssTolerance >= 10) {
                tps_fatal("bad --rss-tolerance value '%s'", arg + 16);
            }
        } else if (std::strncmp(arg, "--footprint=", 12) == 0) {
            if (!parseSize(arg + 12, &args.footprintBytes) ||
                args.footprintBytes == 0) {
                tps_fatal("bad --footprint value '%s' (want e.g. "
                          "512m, 64g, 1t)", arg + 12);
            }
        } else if (std::strncmp(arg, "--rss-budget=", 13) == 0) {
            if (!parseSize(arg + 13, &args.rssBudgetBytes) ||
                args.rssBudgetBytes == 0) {
                tps_fatal("bad --rss-budget value '%s' (want e.g. "
                          "8g)", arg + 13);
            }
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf(
                "options: --out=<path> --compare=<path> "
                "--tolerance=<f> --rss-tolerance=<f> --scale=<f> "
                "--benchmarks=a,b,c --repeat=<n> "
                "--footprint=<size[kmgt]> --rss-budget=<size[kmgt]> "
                "--trace-overhead\n");
            std::exit(0);
        } else {
            tps_fatal("unknown option '%s' (try --help)", arg);
        }
    }
    if (args.benchmarks.empty())
        args.benchmarks = {"gups", "mcf", "xsbench"};
    if (args.out.empty()) {
        char date[16];
        std::time_t now = std::time(nullptr);
        std::tm tm_buf{};
        localtime_r(&now, &tm_buf);
        std::strftime(date, sizeof(date), "%Y-%m-%d", &tm_buf);
        args.out = std::string("BENCH_") + date + ".json";
    }
    return args;
}

struct CellPerf
{
    std::string workload;
    std::string design;
    uint64_t accesses = 0;
    double seconds = 0.0;
    double accessesPerSec = 0.0;
    uint64_t hostRssBytes = 0;  //!< best-of-N peak RSS (0 = unmeasured)
};

/**
 * Run one cell @p repeat times, keeping the fastest run.  Accesses are
 * the total simulated count (warmup included -- warmup costs host time
 * like any other access).  Peak RSS is reset and read around every
 * iteration, keeping the smallest peak: like best-of-N timing, the
 * minimum converges on the cell's real requirement (first iterations
 * can carry allocator warmup from earlier cells).
 */
CellPerf
measure(const std::string &wl, core::Design design, double scale,
        uint64_t footprint_bytes, unsigned repeat,
        obs::EventTrace *trace)
{
    core::RunOptions run;
    run.workload = wl;
    run.design = design;
    run.scale = scale;
    run.footprintBytes = footprint_bytes;
    core::RunHooks hooks;
    hooks.trace = trace;

    CellPerf perf;
    perf.workload = wl;
    perf.design = core::designName(design);
    for (unsigned i = 0; i < repeat; ++i) {
        if (trace)
            trace->clear();
        trimHeap();
        resetPeakRss();
        auto t0 = std::chrono::steady_clock::now();
        sim::SimStats stats = core::runExperiment(run, hooks);
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        uint64_t rss = readPeakRssBytes();
        if (i == 0 || seconds < perf.seconds) {
            perf.accesses = stats.accesses + stats.warmup.accesses;
            perf.seconds = seconds;
        }
        if (i == 0 || rss < perf.hostRssBytes)
            perf.hostRssBytes = rss;
    }
    perf.accessesPerSec =
        perf.seconds > 0
            ? static_cast<double>(perf.accesses) / perf.seconds
            : 0;
    return perf;
}

/** Baseline cell JSON for (workload, design), or nullptr. */
const obs::Json *
baselineCell(const obs::Json &base, const CellPerf &cell)
{
    const obs::Json *cells = base.find("cells");
    if (!cells)
        return nullptr;
    for (size_t i = 0; i < cells->size(); ++i) {
        const obs::Json &c = cells->at(i);
        if (c.at("workload").asString() == cell.workload &&
            c.at("design").asString() == cell.design) {
            return &c;
        }
    }
    return nullptr;
}

/** Baseline lookup: accessesPerSec for (workload, design), or 0. */
double
baselineRate(const obs::Json &base, const CellPerf &cell)
{
    const obs::Json *c = baselineCell(base, cell);
    return c ? c->at("accessesPerSec").asDouble() : 0.0;
}

/** Baseline lookup: hostRssBytes for (workload, design), or 0. */
uint64_t
baselineRss(const obs::Json &base, const CellPerf &cell)
{
    const obs::Json *c = baselineCell(base, cell);
    if (!c)
        return 0;
    const obs::Json *rss = c->find("hostRssBytes");
    return rss ? rss->asUInt() : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    static const core::Design kDesigns[] = {core::Design::Thp,
                                            core::Design::Tps};

    std::vector<CellPerf> cells;
    Summary rates;
    bool over_budget = false;
    for (const std::string &wl : args.benchmarks) {
        for (core::Design design : kDesigns) {
            CellPerf perf = measure(wl, design, args.scale,
                                    args.footprintBytes, args.repeat,
                                    nullptr);
            std::printf("%-12s %-10s %12llu accesses  %8.3f s  "
                        "%12.0f acc/s  %8.1f MB peak\n",
                        perf.workload.c_str(), perf.design.c_str(),
                        static_cast<unsigned long long>(perf.accesses),
                        perf.seconds, perf.accessesPerSec,
                        static_cast<double>(perf.hostRssBytes) /
                            (1 << 20));
            if (args.rssBudgetBytes != 0 &&
                perf.hostRssBytes > args.rssBudgetBytes) {
                std::fprintf(stderr,
                             "%s/%s peak RSS %.1f MB exceeds the "
                             "%.1f MB budget\n",
                             perf.workload.c_str(), perf.design.c_str(),
                             static_cast<double>(perf.hostRssBytes) /
                                 (1 << 20),
                             static_cast<double>(args.rssBudgetBytes) /
                                 (1 << 20));
                over_budget = true;
            }
            if (args.traceOverhead) {
                obs::EventTrace trace;
                CellPerf traced = measure(wl, design, args.scale,
                                          args.footprintBytes,
                                          args.repeat, &trace);
                double overhead =
                    perf.seconds > 0
                        ? 100.0 * (traced.seconds - perf.seconds) /
                              perf.seconds
                        : 0.0;
                std::printf("%-12s %-10s   with tracing: %8.3f s "
                            "(%+.1f%%, %zu events)\n",
                            perf.workload.c_str(), perf.design.c_str(),
                            traced.seconds, overhead, trace.size());
            }
            rates.add(perf.accessesPerSec);
            cells.push_back(std::move(perf));
        }
    }

    obs::Json j = obs::Json::object();
    j["format"] = std::string("tps-perf-baseline");
    j["version"] = uint64_t(1);
    j["scale"] = args.scale;
    obs::Json arr = obs::Json::array();
    for (const CellPerf &perf : cells) {
        obs::Json c = obs::Json::object();
        c["workload"] = perf.workload;
        c["design"] = perf.design;
        c["accesses"] = perf.accesses;
        c["seconds"] = perf.seconds;
        c["accessesPerSec"] = perf.accessesPerSec;
        if (perf.hostRssBytes != 0)
            c["hostRssBytes"] = perf.hostRssBytes;
        arr.push(std::move(c));
    }
    j["cells"] = std::move(arr);
    j["geomeanAccessesPerSec"] = rates.geomean();
    if (args.footprintBytes != 0)
        j["footprintBytes"] = args.footprintBytes;
    obs::writeJsonFile(args.out, j);
    std::printf("wrote %s (geomean %.0f acc/s)\n", args.out.c_str(),
                rates.geomean());

    if (over_budget) {
        std::fprintf(stderr, "peak RSS over --rss-budget\n");
        return 1;
    }

    if (args.compare.empty())
        return 0;

    obs::Json base;
    try {
        base = obs::readJsonFile(args.compare);
    } catch (const SimError &e) {
        tps_fatal("cannot read baseline %s: %s\n"
                  "  (generate one first with: perf_baseline "
                  "--out=%s --scale=%g, typically from the main branch "
                  "you want to compare against)",
                  args.compare.c_str(), e.what(), args.compare.c_str(),
                  args.scale);
    }
    if (!base.find("format") ||
        base.at("format").asString() != "tps-perf-baseline") {
        tps_fatal("%s is not a tps-perf-baseline file",
                  args.compare.c_str());
    }
    if (base.at("scale").asDouble() != args.scale) {
        tps_fatal("baseline %s was measured at --scale=%g, not %g; "
                  "throughput is not comparable across scales",
                  args.compare.c_str(), base.at("scale").asDouble(),
                  args.scale);
    }

    // The gate is the geomean over the cells both files measured, so
    // adding or dropping a benchmark doesn't skew the comparison.
    Summary shared_now, shared_base;
    for (const CellPerf &perf : cells) {
        double ref = baselineRate(base, perf);
        if (ref <= 0)
            continue;
        shared_now.add(perf.accessesPerSec);
        shared_base.add(ref);
        double change = perf.accessesPerSec / ref - 1.0;
        std::printf("compare %-12s %-10s %+7.1f%% vs baseline\n",
                    perf.workload.c_str(), perf.design.c_str(),
                    100.0 * change);
    }
    if (shared_now.empty())
        tps_fatal("baseline %s shares no cells with this run",
                  args.compare.c_str());
    double change = shared_now.geomean() / shared_base.geomean() - 1.0;
    bool failed = change < -args.tolerance;
    std::printf("compare geomean %+18.1f%% vs baseline  %s\n",
                100.0 * change, failed ? "REGRESSION" : "ok");

    // RSS rides the same gate in the other direction: growth beyond
    // --rss-tolerance fails.  Cells without RSS on both sides are
    // skipped, so comparing against a pre-RSS baseline degrades to the
    // throughput gate alone.
    Summary rss_now, rss_base;
    for (const CellPerf &perf : cells) {
        uint64_t ref = baselineRss(base, perf);
        if (ref == 0 || perf.hostRssBytes == 0)
            continue;
        rss_now.add(static_cast<double>(perf.hostRssBytes));
        rss_base.add(static_cast<double>(ref));
        double delta =
            static_cast<double>(perf.hostRssBytes) / ref - 1.0;
        std::printf("compare %-12s %-10s %+7.1f%% RSS (%.1f MB vs "
                    "%.1f MB)\n",
                    perf.workload.c_str(), perf.design.c_str(),
                    100.0 * delta,
                    static_cast<double>(perf.hostRssBytes) / (1 << 20),
                    static_cast<double>(ref) / (1 << 20));
    }
    bool rss_failed = false;
    if (!rss_now.empty()) {
        double growth = rss_now.geomean() / rss_base.geomean() - 1.0;
        rss_failed = growth > args.rssTolerance;
        std::printf("compare geomean RSS %+14.1f%% vs baseline  %s\n",
                    100.0 * growth,
                    rss_failed ? "REGRESSION" : "ok");
        if (rss_failed) {
            std::fprintf(stderr,
                         "RSS regression beyond %.0f%% tolerance\n",
                         100.0 * args.rssTolerance);
        }
    }

    if (failed) {
        std::fprintf(stderr,
                     "perf regression beyond %.0f%% tolerance\n",
                     100.0 * args.tolerance);
    }
    if (failed || rss_failed)
        return 1;
    std::printf("perf within %.0f%% of baseline\n",
                100.0 * args.tolerance);
    return 0;
}
