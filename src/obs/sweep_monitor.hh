/**
 * @file
 * Sweep tracing, live progress, and heartbeats for experiment grids.
 *
 * The monitor records one span per cell (label, owning pool worker,
 * start/end time) as the ExperimentRunner executes it, renders the
 * whole sweep as Chrome trace-event JSON (load chrome://tracing or
 * https://ui.perfetto.dev) and optionally keeps a live progress/ETA
 * line on stderr while the sweep runs.
 *
 * For sharded sweeps the monitor is also the distributed-observability
 * endpoint: with Config::heartbeatPath set it keeps a small
 * "tps-heartbeat" JSON file up to date (atomic tmp+rename writes, on a
 * background thread) with done/failed/retried counts, throughput, ETA
 * and peak RSS, so `tps-merge --watch` on a shared filesystem can show
 * cross-shard health.  Trace output stamps the shard index into the
 * Chrome-trace pid so per-shard traces load side-by-side.
 *
 * Thread-safe: begin()/end() are called concurrently from pool
 * workers.  Worker attribution comes from
 * util::TaskPool::currentWorkerIndex().
 */

#ifndef TPS_OBS_SWEEP_MONITOR_HH
#define TPS_OBS_SWEEP_MONITOR_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"

namespace tps::obs {

/**
 * Peak resident set size of this process in bytes: VmHWM from
 * /proc/self/status, with getrusage's ru_maxrss as fallback; 0 when
 * neither is available.
 */
uint64_t peakRssBytes();

/** The monitor. */
class SweepMonitor
{
  public:
    /** Construction knobs. */
    struct Config
    {
        std::string bench;      //!< name shown in progress lines
        bool progress = false;  //!< live per-cell progress on stderr
        /**
         * When non-empty, keep a tps-heartbeat JSON file at this path
         * updated every heartbeatIntervalSeconds (plus once at start
         * and once, with finished = true, at destruction).  Writes are
         * atomic (tmp + rename) and tolerant: an unwritable heartbeat
         * warns once and never aborts the sweep.
         */
        std::string heartbeatPath;
        double heartbeatIntervalSeconds = 5.0;
    };

    SweepMonitor();
    explicit SweepMonitor(Config cfg);
    ~SweepMonitor();

    SweepMonitor(const SweepMonitor &) = delete;
    SweepMonitor &operator=(const SweepMonitor &) = delete;

    /**
     * Announce @p cells upcoming spans (called once per submitted
     * grid), so the progress line's total and ETA are meaningful.
     */
    void addPlanned(size_t cells);

    /**
     * Declare which shard of a sharded sweep this process runs (called
     * by fig_common after planning, when the grid fingerprint is
     * known).  Flows into heartbeats and into Chrome-trace process
     * metadata: pid = 1 + index, so per-shard trace files loaded into
     * one viewer land on distinct, ordered process rows.
     */
    void setShard(unsigned index, unsigned count,
                  const std::string &gridFingerprint);

    /** Open a span for one cell; returns its id. */
    uint64_t begin(const std::string &label);

    /** Close the span @p id (emits a progress update). */
    void end(uint64_t id);

    /**
     * Attach cell-outcome details to the calling worker's open span:
     * how many attempts the cell took, (when it failed) the manifest-v2
     * errorKind, and the cell's final wall time in milliseconds.
     * Emitted as Chrome trace event args, so a retried, failed or slow
     * cell is visible right in the trace timeline when triaging shard
     * imbalance.  Also feeds the heartbeat's failed/retried counters.
     * No-op when the caller has no open span.
     */
    void annotate(unsigned attempts, const std::string &errorKind,
                  double wallMs = 0.0);

    /**
     * RAII span guard; a null monitor makes it a no-op, so callers can
     * wrap work unconditionally.
     */
    class Scope
    {
      public:
        Scope(SweepMonitor *monitor, const std::string &label)
            : monitor_(monitor), id_(monitor ? monitor->begin(label) : 0)
        {
        }

        ~Scope()
        {
            if (monitor_)
                monitor_->end(id_);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SweepMonitor *monitor_;
        uint64_t id_;
    };

    size_t planned() const;
    size_t completed() const;

    /**
     * The sweep as Chrome trace-event JSON: one "X" (complete) event
     * per finished span, tid = pool worker + 1 (tid 0 is the calling
     * thread), timestamps in microseconds since construction, plus
     * thread_name metadata.
     */
    Json traceJson() const;

    /** Write traceJson() to @p path. */
    void writeTrace(const std::string &path) const;

    /** The current heartbeat document (what the heartbeat file holds). */
    Json heartbeatJson(bool finished) const;

  private:
    struct Span
    {
        std::string label;
        int worker = -1;      //!< TaskPool worker index; -1 = caller
        uint64_t startUs = 0;
        uint64_t endUs = 0;
        bool done = false;
        unsigned attempts = 0;  //!< 0 = not annotated
        std::string errorKind;  //!< empty = cell succeeded
        double wallMs = 0.0;    //!< final cell wall time; 0 = unknown
    };

    /** Microseconds since construction. */
    uint64_t nowUs() const;

    void printProgress(const Span &last) const;
    void writeHeartbeat(bool finished) const;

    mutable std::mutex mu_;
    Config cfg_;
    std::chrono::steady_clock::time_point start_;
    std::vector<Span> spans_;
    size_t planned_ = 0;
    size_t done_ = 0;
    size_t failed_ = 0;
    size_t retried_ = 0;
    std::string lastLabel_;
    unsigned shardIndex_ = 0;
    unsigned shardCount_ = 1;
    std::string gridFingerprint_;
    std::jthread beat_;  //!< heartbeat writer; joined in destructor
};

} // namespace tps::obs

#endif // TPS_OBS_SWEEP_MONITOR_HH
