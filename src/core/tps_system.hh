/**
 * @file
 * Public facade: one object that assembles physical memory, a paging
 * policy, the TLB/walker hardware and the simulation engine for any of
 * the paper's designs -- plus the experiment runner used by the figure
 * benches and examples.
 */

#ifndef TPS_CORE_TPS_SYSTEM_HH
#define TPS_CORE_TPS_SYSTEM_HH

#include <memory>
#include <optional>
#include <string>

#include "os/fragmenter.hh"
#include "os/phys_memory.hh"
#include "os/policy_common.hh"
#include "sim/engine.hh"
#include "util/stats.hh"
#include "workloads/registry.hh"

namespace tps::obs {
class EventTrace;
class MemTelemetry;
class ProfileRegistry;
} // namespace tps::obs

namespace tps::core {

/** The designs every figure compares. */
enum class Design
{
    Base4k,    //!< 4 KB demand paging (THP disabled)
    Thp,       //!< reservation-based THP (the paper's baseline)
    Tps,       //!< Tailored Page Sizes
    TpsEager,  //!< TPS with eager paging
    Rmm,       //!< Redundant Memory Mappings
    Colt,      //!< Coalesced TLBs
};

/** Printable name of a design. */
const char *designName(Design d);

/** Build the paging policy for @p d. */
std::unique_ptr<os::PagingPolicy>
makePolicy(Design d, double tps_threshold = 1.0);

/** Build the TLB-hierarchy geometry for @p d (Table I defaults). */
tlb::TlbHierarchyConfig designTlbConfig(Design d);

/** Everything one experiment run needs. */
struct RunOptions
{
    std::string workload;          //!< registry name
    Design design = Design::Thp;
    double scale = 1.0;            //!< workload scale factor
    uint64_t physBytes = 8ull << 30;
    double tpsThreshold = 1.0;
    bool smt = false;              //!< add a competing thread
    bool virtualized = false;      //!< two-dimensional page walks
    bool fiveLevel = false;
    bool noMmuCache = false;       //!< disable paging-structure caches
    bool tpsTlbSkewed = false;     //!< skewed-associative TPS TLB
    unsigned tpsTlbEntries = 0;    //!< TPS L1 TLB entries (0 = default)
    bool fragmented = false;       //!< pre-age physical memory
    os::FragmenterConfig fragmenter;
    sim::TlbTimingMode timing = sim::TlbTimingMode::Real;
    vm::AliasMode aliasMode = vm::AliasMode::Pointer;
    vm::SizeEncoding encoding = vm::SizeEncoding::Napot;
    uint64_t maxAccesses = ~0ull;
    uint64_t epochAccesses = 0;    //!< epoch-sample interval (0 = off)
    bool paranoid = false;         //!< full invariant check after the run
    uint64_t checkEvery = 0;       //!< in-run invariant-check interval
    bool referencePath = false;    //!< translate with the reference step
    uint64_t chunkAccesses = 0;    //!< engine chunk size (0 = default)
    double cellTimeoutSeconds = 0; //!< per-cell wall-clock budget (0 = none)
    //! Record physical-memory telemetry (obs/mem_telemetry.hh) into
    //! SimStats::mem.  Part of cell identity: it adds a "mem" section
    //! to the stat tree, so manifests distinguish telemetry runs.
    bool memTelemetry = false;
    //! Override the workload's nominal memory footprint in bytes
    //! (gups table, graph500 edge arrays, dbx1000 buffer pool);
    //! 0 = workload default.  When set, runExperiment() also grows the
    //! physical capacity to fit (physBytes acts as a floor), letting a
    //! terabyte-footprint cell run on a default command line.  Part of
    //! cell identity when nonzero.
    uint64_t footprintBytes = 0;
    //! Use the dense simulator state (fully materialized buddy free
    //! lists, resident page-table nodes) instead of the sparse default
    //! -- the oracle side of the sparse/dense golden tests.  Host-only
    //! representation switch: stats and manifests are bit-identical
    //! either way, so it is never serialized into manifests.
    bool denseState = false;
};

/** How one sweep cell ended (recorded in run manifests). */
enum class CellStatus
{
    Ok,       //!< ran to completion
    Failed,   //!< aborted with an error; stats are zeroed
    Timeout,  //!< exceeded its wall-clock budget; stats are zeroed
    Resumed,  //!< restored from a prior manifest, not re-run
};

/** Stable display name ("ok", "failed", "timeout", "resumed"). */
const char *cellStatusName(CellStatus status);

/**
 * The workload seed offset for one cell: a stable hash of (workload,
 * design, scale), so every cell in a sweep draws from an independent,
 * reproducible stream regardless of run order or thread placement.
 */
uint64_t runSeed(const RunOptions &opts);

/**
 * The canonical display label for one cell: "workload/design", with a
 * "/perfect-l1" or "/perfect-l2" suffix when the timing mode is not
 * Real, then one suffix per design knob that is off its default:
 * "/threshold-<t>", "/full-copy", "/no-mmu-cache", "/tps-tlb-<n>" and
 * "/skewed", in that order.  Default cells keep the bare label.
 * Sweep-monitor spans, event-trace cells and run-manifest cells all
 * use this one label, so the three artifact kinds of a sweep join on
 * (label, seed) without heuristics.
 */
std::string cellLabel(const RunOptions &opts);

/**
 * The address space's mapped pages at the end of a run (Figs. 9 and
 * 18): how many pages of each size, and how many distinct 2 MB chunks
 * they cover.
 */
struct Census
{
    Histogram pageSizes;    //!< log2(page size) -> mapped page count
    uint64_t chunks2m = 0;  //!< distinct 2 MB chunks with a mapping

    /** Committed bytes, including promotion bloat. */
    uint64_t mappedBytes() const;
};

/**
 * Optional per-run observability attachments for runExperiment():
 * an event trace (obs/event_trace.hh), a simulator self-profile
 * (obs/profile.hh) and a physical-memory telemetry probe
 * (obs/mem_telemetry.hh), each recorded by the cell's engine when
 * non-null.  When RunOptions::memTelemetry is set and no external
 * probe is supplied, runExperiment() attaches a local one -- either
 * way the recorded data lands in SimStats::mem.  A non-null census is
 * overwritten with the end-of-run Census once the run succeeds.
 */
struct RunHooks
{
    obs::EventTrace *trace = nullptr;
    obs::ProfileRegistry *profile = nullptr;
    obs::MemTelemetry *memTelemetry = nullptr;
    Census *census = nullptr;
};

/**
 * The exact EngineConfig runExperiment() assembles for @p opts,
 * including the workload-specific instruction mix -- exposed so run
 * manifests can record the hardware configuration a cell used.
 */
sim::EngineConfig makeEngineConfig(const RunOptions &opts);

/**
 * The physical capacity runExperiment() actually provisions for
 * @p opts: physBytes, grown when a footprint override needs more room
 * (the footprint itself plus headroom for page tables, reservations
 * and fragmentation).
 */
uint64_t effectivePhysBytes(const RunOptions &opts);

/**
 * Run one experiment configuration end to end.  Deterministic: the same
 * options always produce the same statistics, whether cells execute
 * serially or on an ExperimentRunner pool (seeds come from runSeed(),
 * never from global state).
 */
sim::SimStats runExperiment(const RunOptions &opts);

/** runExperiment() with observability hooks attached to the engine. */
sim::SimStats runExperiment(const RunOptions &opts,
                            const RunHooks &hooks);

/**
 * An assembled system for direct API use (the examples): mmap memory,
 * touch it, inspect the page table and TLBs.
 */
class TpsSystem
{
  public:
    /** Assembly knobs for direct use. */
    struct Config
    {
        Design design = Design::Tps;
        uint64_t physBytes = 1ull << 30;
        double tpsThreshold = 1.0;
        vm::AliasMode aliasMode = vm::AliasMode::Pointer;
        vm::SizeEncoding encoding = vm::SizeEncoding::Napot;
        bool denseState = false;  //!< dense simulator-state oracle
    };

    explicit TpsSystem(const Config &cfg);

    /** Map @p bytes of anonymous memory. */
    vm::Vaddr mmap(uint64_t bytes);

    /** Unmap a region returned by mmap. */
    void munmap(vm::Vaddr start);

    /**
     * Perform one memory access (translating through the TLBs and
     * walker, faulting and promoting as the policy dictates).
     * @return the physical address.
     */
    vm::Paddr access(vm::Vaddr va, bool write = false);

    /** Touch every base page of [start, start+bytes). */
    void touchRange(vm::Vaddr start, uint64_t bytes, bool write = true);

    os::PhysMemory &phys() { return *phys_; }
    os::AddressSpace &addressSpace() { return engine_->addressSpace(); }
    sim::Mmu &mmu() { return engine_->mmu(); }
    sim::Engine &engine() { return *engine_; }

  private:
    Config cfg_;
    std::unique_ptr<os::PhysMemory> phys_;
    std::unique_ptr<sim::Engine> engine_;
};

} // namespace tps::core

#endif // TPS_CORE_TPS_SYSTEM_HH
