/**
 * @file
 * The benchmark's workloads and the code that runs one cell.  A cell
 * is assembled from tpslib's public API in the same steps as
 * core::runExperiment -- PhysMemory, optional Fragmenter,
 * makeEngineConfig, makePolicy, Engine, makeWorkload -- with the
 * workloads wrapped so the benchmark can time generation, the engine
 * loop and the OS calls the workloads make, and with the workload
 * seed shifted by the benchmark's --seed.
 */

#ifndef SIMBENCH_CELLS_HH
#define SIMBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "core/tps_system.hh"
#include "spans.hh"

namespace simbench {

/** One cell: run options plus the observability work it pays for. */
struct CellSpec
{
    tps::core::RunOptions opts;
    bool eventTrace = false;  //!< record + obs::encodeEvents a trace
    bool statsJson = false;   //!< serialize the stat tree to JSON text
    //! Accesses per ns-per-access window; smaller in smoke cells so
    //! they still yield windows.
    uint64_t windowAccesses = kWindowAccesses;
};

/** A named workload: its cells, run one after another. */
struct BenchWorkload
{
    std::string name;
    std::vector<CellSpec> cells;
    //! The paper's mean TPS speedup for this configuration (Fig. 13
    //! native, Fig. 14 SMT), the reference of tps_speedup_gap_pp.
    double paperSpeedupPercent = 0;
};

/** The workload names, in the order the docs list them. */
const std::vector<std::string> &benchWorkloadNames();

/**
 * Workload @p name at full size, or, with @p smoke, at a size that
 * runs in well under a second.  Throws std::invalid_argument on an
 * unknown name.
 */
BenchWorkload benchWorkload(const std::string &name, bool smoke = false);

/** Per-layer work counts of one cell, read through Engine::registerStats. */
struct LayerCounts
{
    uint64_t mmapCalls = 0;
    uint64_t munmapCalls = 0;
    uint64_t faults = 0;               //!< os.work.faults (whole run)
    uint64_t promotions = 0;
    uint64_t reservationsCreated = 0;
    uint64_t buddySplits = 0;
    uint64_t buddyMerges = 0;
    uint64_t compactionMigratedFrames = 0;
    uint64_t osWorkCycles = 0;
    uint64_t walks = 0;                //!< measured phase from here on
    uint64_t walkRefs = 0;
    uint64_t mmuCacheHits = 0;
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t stlbHits = 0;
    uint64_t mmuFaults = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t dramAccesses = 0;

    LayerCounts &operator+=(const LayerCounts &o);
};

/** What one cell run produced. */
struct CellResult
{
    tps::sim::SimStats stats;
    std::string tree;           //!< stat tree JSON (statsJson cells only)
    LayerCounts counts;
    uint64_t accesses = 0;      //!< generated, all threads, warmup included
    uint64_t initAccesses = 0;  //!< of which in a thread's init sweep
    double cpuSeconds = 0;      //!< thread CPU, assembly to teardown
    double setupSeconds = 0;    //!< thread CPU before the first access
    std::vector<double> windowNs; //!< ns per access, 64 Ki windows (untraced)
    double initEngineSeconds = 0; //!< engine time on init accesses (traced)
    uint64_t epochSamples = 0;
    uint64_t telemetrySamples = 0;
    uint64_t traceEvents = 0;
    uint64_t traceBytes = 0;
    uint64_t statsJsonBytes = 0;
};

/**
 * Run @p spec at benchmark seed @p seed.  With @p spans, record the
 * cell's spans under cell id @p cell_id; otherwise take the cheap
 * per-window CPU readings of the untraced run.
 */
CellResult runCell(const CellSpec &spec, uint64_t seed,
                   SpanRecorder *spans = nullptr, uint32_t cell_id = 0);

/** Counts the replay reproduces; they must equal the engine run's. */
struct ReplayCounts
{
    uint64_t accesses = 0;
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t stlbHits = 0;
    uint64_t walks = 0;
    uint64_t mmuFaults = 0;
    uint64_t osFaults = 0;

    bool operator==(const ReplayCounts &) const = default;
};

/** The ReplayCounts view of an engine run. */
ReplayCounts engineCounts(const CellResult &run);

/**
 * Rebuild @p spec's cell, regenerate its access stream and push it
 * through Mmu::access, MemSys::access and CycleModel::onAccess one
 * layer at a time per chunk of up to 4096 accesses, in the engine's
 * order (SMT round-robin, warmup reset, maxAccesses stop).  Records
 * per-layer spans when @p spans is set.
 */
ReplayCounts replayCell(const CellSpec &spec, uint64_t seed,
                        SpanRecorder *spans = nullptr,
                        uint32_t cell_id = 0);

/** This thread's CPU time in seconds (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuSeconds();

} // namespace simbench

#endif // SIMBENCH_CELLS_HH
