#include "bench_stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/perf_model.hh"
#include "util/stats.hh"

namespace simbench {

Quantile
quantile(std::vector<double> v, double q)
{
    Quantile out;
    out.samples = v.size();
    if (v.empty()) {
        out.value = std::numeric_limits<double>::quiet_NaN();
        return out;
    }
    std::sort(v.begin(), v.end());
    double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    out.value = v[lo] + (v[hi] - v[lo]) * frac;
    out.beyond = static_cast<size_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), out.value));
    return out;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5).value;
}

void
CellFloor::add(size_t cell, double cpu_seconds, double setup_seconds,
               const std::vector<double> &window_ns)
{
    if (cells_.size() <= cell)
        cells_.resize(cell + 1);
    Cell &c = cells_[cell];
    c.cpu = std::max(c.cpu, cpu_seconds);
    c.setup = std::max(c.setup, setup_seconds);
    if (c.windows.size() < window_ns.size())
        c.windows.resize(window_ns.size(), 0.0);
    for (size_t i = 0; i < window_ns.size(); ++i)
        c.windows[i] = std::max(c.windows[i], window_ns[i]);
}

double
CellFloor::cpuSeconds() const
{
    double s = 0;
    for (const Cell &c : cells_)
        s += c.cpu;
    return s;
}

double
CellFloor::setupSeconds() const
{
    double s = 0;
    for (const Cell &c : cells_)
        s += c.setup;
    return s;
}

std::vector<double>
CellFloor::windowNs() const
{
    std::vector<double> out;
    for (const Cell &c : cells_)
        out.insert(out.end(), c.windows.begin(), c.windows.end());
    return out;
}

void
WindowSeries::start(double ns)
{
    accesses_ = 0;
    startNs_ = ns;
}

void
WindowSeries::advance(uint64_t accesses, double ns)
{
    accesses_ += accesses;
    if (accesses_ < windowAccesses_)
        return;
    values_.push_back((ns - startNs_) / static_cast<double>(accesses_));
    start(ns);
}

double
elimPercent(uint64_t baseline, uint64_t with)
{
    return std::max(0.0, tps::percentEliminated(baseline, with));
}

double
tpsSpeedupPercent(const SpeedupCells &c)
{
    using namespace tps::sim;
    double savable = savablePwcFraction(
        CounterPoint{c.base4k->cycles, c.base4k->walkCycles},
        CounterPoint{c.thp->cycles, c.thp->walkCycles});
    SpeedupInputs in;
    in.baselineCycles = c.thp->cycles;
    in.perfectL2Cycles = c.perfectL2->cycles;
    in.perfectL1Cycles = c.perfectL1->cycles;
    in.baselinePwCycles = c.thp->walkCycles;
    in.savableFraction = savable;
    in.l1MissElimination =
        elimPercent(c.thp->l1TlbMisses, c.tps->l1TlbMisses) / 100.0;
    in.walkRefElimination =
        elimPercent(c.thp->walkMemRefs, c.tps->walkMemRefs) / 100.0;
    return 100.0 * (estimateSpeedup(in).speedup - 1.0);
}

double
gapPp(double measured_percent, double paper_percent)
{
    return std::fabs(measured_percent - paper_percent);
}

uint64_t
workloadSeed(uint64_t cell_seed, uint64_t bench_seed)
{
    // Unsigned wrap-around is intended: any 64-bit offset is a seed.
    return cell_seed + bench_seed * 0x9e3779b97f4a7c15ull;
}

} // namespace simbench
