/**
 * @file
 * The benchmark proper: command-line parsing, the timed, traced and
 * check runs, and the result line.  main.cc only wraps these so the
 * tests can drive them in-process.
 */

#ifndef SIMBENCH_BENCH_HH
#define SIMBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

namespace simbench {

/** Command-line options. */
struct BenchOptions
{
    std::string workload;   //!< empty = every workload (check, smoke)
    uint64_t seed = 0;      //!< 0 = the library's own per-cell seeds
    double seconds = 10;    //!< measuring time of a timed/traced run
    bool trace = false;     //!< traced run: per-layer metrics
    bool check = false;     //!< check mode: correctness only
    bool smoke = false;     //!< tiny cells, for tests
    std::string outDir;     //!< where run records go ("" = none)
};

/**
 * Parse --workload --seed --seconds --trace --check --smoke --out-dir.
 * Throws std::invalid_argument with a one-line message on bad input.
 */
BenchOptions parseArgs(const std::vector<std::string> &args);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run reports. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;  //!< cell runs attempted
    uint64_t failed = 0;     //!< cell runs that threw or failed a check
    std::vector<Metric> metrics;
    std::vector<std::string> errors;  //!< first few failure messages
};

/**
 * Run one workload (timed, or traced with opts.trace), or check mode
 * over opts.workload or every workload.  Smoke mode runs every
 * workload when opts.workload is empty and concatenates the results.
 */
RunResult runBenchmark(const BenchOptions &opts);

/** The result as the single-line JSON object the contract asks for. */
std::string resultJson(const RunResult &result);

} // namespace simbench

#endif // SIMBENCH_BENCH_HH
