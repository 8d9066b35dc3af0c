/**
 * @file
 * In-memory span recording for the traced run.  A span has a name, a
 * start, an end, a parent and the id of the cell it belongs to; spans
 * are kept in memory and written out when the run ends.  Times come
 * from std::chrono::steady_clock, a vDSO read: about 45 ns on a
 * 4-vCPU Xeon VM, against about 450 ns for the thread CPU clock.
 *
 * Some spans are aggregates: the generator time of one engine window
 * is recorded as a single child whose duration is the sum of the
 * window's generator calls.  Its start is the window start, so only
 * its duration is meaningful.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace simbench {

/** Span names; each maps to a layer (the prefix before the dot). */
enum class SpanName : uint8_t
{
    Cell,            //!< one cell, assembly to teardown
    Setup,           //!< everything before the cell's first access
    CoreAssemble,    //!< PhysMemory + config + policy + Engine
    OsFragmenter,    //!< pre-ageing physical memory
    WorkloadsSetup,  //!< the workloads' allocation phase
    OsMmap,          //!< one AllocApi::mmap
    OsMunmap,        //!< one AllocApi::munmap
    SimEngine,       //!< one 64 Ki-access engine window
    WorkloadsGen,    //!< generator calls inside a window (aggregate)
    ObsStatsJson,    //!< stat tree to JSON text
    ObsTraceEncode,  //!< obs::encodeEvents of the cell's trace
    OsTeardown,      //!< engine and address-space destruction
    Replay,          //!< the layer-major replay of one cell
    ReplaySetup,     //!< replica assembly and workload set-up
    ReplayGen,       //!< regenerating one replay chunk
    TlbTranslate,    //!< Mmu::access over one chunk
    SimMemsys,       //!< MemSys::access over one chunk
    SimCycle,        //!< CycleModel::onAccess over one chunk
    Count,
};

inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::Count);

/** Dotted display name ("os.mmap"). */
const char *spanName(SpanName name);

/** One recorded span. */
struct Span
{
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;  //!< index into the recorder, -1 = root
    uint32_t cell = 0;
    SpanName name = SpanName::Cell;
};

/** Records spans; nesting follows the open/close stack. */
class SpanRecorder
{
  public:
    /** steady_clock now, in ns. */
    static int64_t now();

    /** Open a span under the innermost open one; returns its id. */
    int32_t open(SpanName name, uint32_t cell);

    /** Close the innermost open span, which must be @p id. */
    void close(int32_t id);

    /** Record a finished (or later-extended) span with an explicit parent. */
    int32_t add(SpanName name, uint32_t cell, int32_t parent,
                int64_t start_ns, int64_t end_ns);

    /** Set the end of span @p id (aggregates grow as they accrue). */
    void setEnd(int32_t id, int64_t end_ns) { spans_[id].endNs = end_ns; }

    /** Innermost open span, -1 when none. */
    int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }

    /**
     * Self time per name in seconds: each span's duration minus the
     * durations of its children, summed by name.
     */
    std::array<double, kSpanNames> selfSeconds() const;

    /** One JSON object per line: name, cell, parent, start, end (ns). */
    void writeJsonLines(std::FILE *out) const;

  private:
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII open/close; a null recorder records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, SpanName name, uint32_t cell)
        : rec_(rec), id_(rec ? rec->open(name, cell) : -1)
    {}
    ~SpanScope()
    {
        if (rec_)
            rec_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_;
    int32_t id_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
