/**
 * @file
 * Pure arithmetic of the simulator-speed benchmark: quantiles with
 * their sample counts, the median-over-passes aggregation, the 64 Ki
 * access window series, the paper-gap metrics and the seed mapping.
 * Everything here is deterministic and unit-tested
 * (simbench_test.cc); nothing reads a clock.
 */

#ifndef SIMBENCH_BENCH_STATS_HH
#define SIMBENCH_BENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine.hh"

namespace simbench {

/** A quantile of a sample, with the counts that qualify it. */
struct Quantile
{
    double value = 0.0;   //!< NaN when the sample is empty
    size_t samples = 0;   //!< sample size the value was taken from
    size_t beyond = 0;    //!< samples strictly greater than value
};

/**
 * The @p q quantile (0 <= q <= 1) of @p v by linear interpolation
 * between closest ranks (numpy's default; Python's
 * statistics.quantiles(method="inclusive")).
 */
Quantile quantile(std::vector<double> v, double q);

/** quantile(v, 0.5).value. */
double median(std::vector<double> v);

/**
 * Aggregates a run's passes into its host-time figures.  Each cell
 * keeps its slowest run over the passes -- CPU time, set-up time, and
 * every 64 Ki-access window position -- and the run reports the sums
 * and the window quantiles of those.  On a shared host a cell runs
 * either at a contended floor or, when the neighbours are quiet, up
 * to twice as fast; the floor repeats from run to run, while a median
 * moves with how many quiet passes a run happened to catch (see
 * STEADINESS.md).
 */
class CellFloor
{
  public:
    /** One run of cell @p cell in some pass. */
    void add(size_t cell, double cpu_seconds, double setup_seconds,
             const std::vector<double> &window_ns);

    /** Sum over cells of each cell's slowest CPU time. */
    double cpuSeconds() const;

    /** Sum over cells of each cell's slowest set-up time. */
    double setupSeconds() const;

    /** Each cell's slowest ns per access at every window position. */
    std::vector<double> windowNs() const;

  private:
    struct Cell
    {
        double cpu = 0;
        double setup = 0;
        std::vector<double> windows;
    };
    std::vector<Cell> cells_;
};

/** Accesses per window of the ns-per-access series. */
inline constexpr uint64_t kWindowAccesses = 64 * 1024;

/**
 * Builds the ns-per-access series from (accesses, ns) readings taken
 * at batch boundaries: a window closes at the first reading at least
 * window_accesses accesses after its start.  A trailing partial window
 * is dropped.
 */
class WindowSeries
{
  public:
    explicit WindowSeries(uint64_t window_accesses = kWindowAccesses)
        : windowAccesses_(window_accesses)
    {}

    /** Open the first window at @p ns. */
    void start(double ns);

    /** A reading after @p accesses more accesses, at time @p ns. */
    void advance(uint64_t accesses, double ns);

    const std::vector<double> &nsPerAccess() const { return values_; }

  private:
    uint64_t windowAccesses_;
    uint64_t accesses_ = 0;
    double startNs_ = 0;
    std::vector<double> values_;
};

/** Percent of @p baseline eliminated by @p with, floored at zero. */
double elimPercent(uint64_t baseline, uint64_t with);

/**
 * The Fig. 13/14 cells of one benchmark: THP at real timing and with
 * perfect L2 and L1 TLBs, THP disabled, and TPS.
 */
struct SpeedupCells
{
    const tps::sim::SimStats *thp = nullptr;
    const tps::sim::SimStats *perfectL2 = nullptr;
    const tps::sim::SimStats *perfectL1 = nullptr;
    const tps::sim::SimStats *base4k = nullptr;
    const tps::sim::SimStats *tps = nullptr;
};

/**
 * TPS speedup over THP in percent, estimated as the figure benches do
 * (savable-PWC calibration, then sim::estimateSpeedup).
 */
double tpsSpeedupPercent(const SpeedupCells &cells);

/** |measured - paper| in percentage points. */
double gapPp(double measured_percent, double paper_percent);

/**
 * The workload seed of a cell: core::runSeed(opts) shifted by the
 * benchmark seed.  Seed 0 is the library's own seed, so a cell at seed
 * 0 reproduces core::runExperiment exactly.
 */
uint64_t workloadSeed(uint64_t cell_seed, uint64_t bench_seed);

} // namespace simbench

#endif // SIMBENCH_BENCH_STATS_HH
