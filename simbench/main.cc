/**
 * @file
 * simbench: the simulator-speed benchmark.  Prints progress and
 * host-noise diagnostics on stderr and, as the last line of stdout,
 * one JSON object {"correct", "attempted", "failed", "metrics"}.
 * Exit status: 0 when every check passed, 1 when one failed, 2 on a
 * bad command line.  See README.md.
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hh"

int
main(int argc, char **argv)
{
    simbench::BenchOptions opts;
    try {
        opts = simbench::parseArgs(
            std::vector<std::string>(argv + 1, argv + argc));
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 2;
    }
    simbench::RunResult res = simbench::runBenchmark(opts);
    for (const simbench::Metric &m : res.metrics) {
        if (!std::isfinite(m.value)) {
            res.correct = false;
            res.errors.push_back("metric " + m.name + " is not finite");
        }
    }
    for (const std::string &e : res.errors)
        std::fprintf(stderr, "simbench: FAILED %s\n", e.c_str());
    std::printf("%s\n", simbench::resultJson(res).c_str());
    return res.correct ? 0 : 1;
}
