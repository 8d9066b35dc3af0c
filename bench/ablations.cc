/**
 * @file
 * Ablations over TPS's design choices (beyond the paper's figures):
 *
 *  1. promotion threshold (Sec. III-B1's conservative..aggressive dial):
 *     L1 misses vs committed-memory bloat;
 *  2. alias-PTE mode (Sec. III-A1): pointer aliases' extra walk access
 *     vs full-copy aliases' PTE-update fan-out;
 *  3. TPS TLB capacity: how small the any-size L1 TLB can be;
 *  4. paging-structure caches: walk references per walk with and
 *     without them.
 */

#include <iostream>

#include "fig_common.hh"

using namespace tps;
using namespace tps::bench;

namespace {

void
thresholdSweep(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- promotion threshold sweep (%s) --\n", wl.c_str());
    const std::vector<double> thresholds = {1.0, 0.75, 0.5, 0.25};
    std::vector<core::RunOptions> cells;
    for (double threshold : thresholds) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Tps);
        run.tpsThreshold = threshold;
        cells.push_back(run);
    }
    std::vector<core::Census> census;
    auto stats = runCells(opts, cells, &census);

    Table table({"threshold", "L1 miss rate", "walk refs",
                 "committed bytes", "pages"});
    for (size_t i = 0; i < thresholds.size(); ++i) {
        table.addRow({fmtPercent(100.0 * thresholds[i]),
                      fmtPercent(percent(stats[i].l1TlbMisses,
                                         stats[i].accesses)),
                      fmtCount(stats[i].walkMemRefs),
                      fmtSize(census[i].mappedBytes()),
                      fmtCount(census[i].pageSizes.total())});
    }
    table.print(std::cout);
    std::printf("\n");
}

void
aliasModes(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- alias-PTE mode (%s) --\n", wl.c_str());
    const std::vector<vm::AliasMode> modes = {vm::AliasMode::Pointer,
                                              vm::AliasMode::FullCopy};
    std::vector<core::RunOptions> cells;
    for (auto mode : modes) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Tps);
        run.aliasMode = mode;
        cells.push_back(run);
    }
    auto stats = runCells(opts, cells);

    Table table({"mode", "walk refs", "alias extra refs",
                 "PTE writes", "alias writes"});
    for (size_t i = 0; i < modes.size(); ++i) {
        table.addRow(
            {modes[i] == vm::AliasMode::Pointer ? "pointer"
                                                : "full-copy",
             fmtCount(stats[i].walkMemRefs),
             fmtCount(stats[i].walker.aliasExtra),
             fmtCount(stats[i].osWork.pteCycles /
                      os::oscost::kPteWrite),
             fmtCount(stats[i].osWork.promotions)});
    }
    table.print(std::cout);
    std::printf("\n");
}

void
tpsTlbCapacity(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- TPS TLB capacity (%s) --\n", wl.c_str());
    const std::vector<unsigned> capacities = {8u, 16u, 32u, 64u};
    std::vector<core::RunOptions> cells;
    for (unsigned entries : capacities) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Tps);
        run.tpsTlbEntries = entries;
        cells.push_back(run);
    }
    auto stats = runCells(opts, cells);

    Table table({"entries", "L1 miss rate", "walks"});
    for (size_t i = 0; i < capacities.size(); ++i) {
        table.addRow({fmtCount(capacities[i]),
                      fmtPercent(percent(stats[i].l1TlbMisses,
                                         stats[i].accesses)),
                      fmtCount(stats[i].tlbMisses)});
    }
    table.print(std::cout);
    std::printf("\n");
}

void
tpsTlbOrganization(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- TPS TLB organization (%s) --\n", wl.c_str());
    struct Org
    {
        const char *name;
        bool skewed;
        unsigned entries;
    };
    const std::vector<Org> orgs = {Org{"fully-assoc 32", false, 32u},
                                   Org{"skewed 32x4", true, 32u},
                                   Org{"skewed 64x4", true, 64u}};
    std::vector<core::RunOptions> cells;
    for (const Org &org : orgs) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Tps);
        run.tpsTlbEntries = org.entries;
        run.tpsTlbSkewed = org.skewed;
        cells.push_back(run);
    }
    auto stats = runCells(opts, cells);

    Table table({"organization", "L1 miss rate", "walks"});
    for (size_t i = 0; i < orgs.size(); ++i) {
        table.addRow({orgs[i].name,
                      fmtPercent(percent(stats[i].l1TlbMisses,
                                         stats[i].accesses)),
                      fmtCount(stats[i].tlbMisses)});
    }
    table.print(std::cout);
    std::printf("\n");
}

void
mmuCacheEffect(const FigOptions &opts, const std::string &wl)
{
    std::printf("-- paging-structure caches (%s, base-4K paging) --\n",
                wl.c_str());
    std::vector<core::RunOptions> cells;
    for (bool disabled : {false, true}) {
        core::RunOptions run = makeRun(opts, wl, core::Design::Base4k);
        run.noMmuCache = disabled;
        cells.push_back(run);
    }
    auto stats = runCells(opts, cells);

    Table table({"MMU caches", "walks", "walk refs", "refs per walk"});
    for (size_t i = 0; i < cells.size(); ++i) {
        table.addRow({cells[i].noMmuCache ? "off" : "on",
                      fmtCount(stats[i].tlbMisses),
                      fmtCount(stats[i].walkMemRefs),
                      fmtDouble(ratio(stats[i].walkMemRefs,
                                      stats[i].tlbMisses),
                                2)});
    }
    table.print(std::cout);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    FigOptions opts = parseArgs(argc, argv);
    initBench("ablations", opts);
    printHeader("Ablations",
                "TPS design-choice sweeps (threshold, alias mode, TLB "
                "capacity, MMU caches)",
                "design-space context beyond the published figures");

    std::string wl =
        opts.benchmarks.empty() ? "xsbench" : opts.benchmarks[0];
    std::string sparse_wl =
        opts.benchmarks.size() > 1 ? opts.benchmarks[1] : "gcc";

    thresholdSweep(opts, sparse_wl);
    aliasModes(opts, wl);
    tpsTlbCapacity(opts, wl);
    tpsTlbOrganization(opts, sparse_wl);
    mmuCacheEffect(opts, "gups");
    finishBench(opts);
    return 0;
}
