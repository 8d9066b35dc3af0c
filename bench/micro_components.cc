/**
 * @file
 * Component microbenchmarks (google-benchmark): the hot paths every
 * simulated access exercises -- TLB lookups in each structure, the
 * data-cache model, NAPOT encode/decode, page walks, buddy allocation,
 * and the full MMU-translate path.  These bound the simulator's own
 * throughput and document the relative cost of the structures.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "os/buddy_allocator.hh"
#include "os/phys_memory.hh"
#include "os/policy_common.hh"
#include "sim/memsys.hh"
#include "sim/mmu.hh"
#include "tlb/colt_tlb.hh"
#include "tlb/fully_assoc_tlb.hh"
#include "tlb/range_tlb.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/skewed_assoc_tlb.hh"
#include "util/rng.hh"
#include "vm/page_table.hh"
#include "vm/pte.hh"
#include "vm/walker.hh"

namespace {

using namespace tps;

tlb::TlbEntry
makeEntry(vm::Vaddr va, vm::Pfn pfn, unsigned page_bits)
{
    vm::LeafInfo leaf;
    leaf.pfn = pfn;
    leaf.pageBits = page_bits;
    leaf.writable = true;
    leaf.user = true;
    return tlb::TlbEntry::fromLeaf(va, leaf, 0);
}

void
BM_NapotEncodeDecode(benchmark::State &state)
{
    unsigned page_bits = static_cast<unsigned>(state.range(0));
    unsigned k = page_bits - vm::kBasePageBits;
    vm::Pfn pfn = 0xABCDull << k;
    for (auto _ : state) {
        vm::Pfn coded = vm::napotEncode(pfn, page_bits);
        unsigned bits = 0;
        benchmark::DoNotOptimize(vm::napotDecode(coded, bits));
    }
}
BENCHMARK(BM_NapotEncodeDecode)->Arg(13)->Arg(21)->Arg(30);

void
BM_SetAssocTlbLookup(benchmark::State &state)
{
    tlb::SetAssocTlb tlb("bm", 64, 4, {vm::kPageBits4K});
    for (int i = 0; i < 64; ++i)
        tlb.fill(makeEntry(i * 0x1000ull, i + 1, 12));
    Pcg32 rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(rng.below(64) * 0x1000ull));
}
BENCHMARK(BM_SetAssocTlbLookup);

void
BM_FullyAssocTlbLookup(benchmark::State &state)
{
    // The 32-entry any-size TPS TLB with mixed page sizes resident.
    tlb::FullyAssocTlb tlb("bm", 32);
    for (int i = 0; i < 32; ++i) {
        unsigned pb = 13 + (i % 8);
        tlb.fill(makeEntry((1ull << 32) + (uint64_t(i) << 21),
                           (1ull << 21) + ((uint64_t(i) << 21) >> 12),
                           pb));
    }
    Pcg32 rng(2);
    for (auto _ : state) {
        vm::Vaddr va = (1ull << 32) + (uint64_t(rng.below(32)) << 21);
        benchmark::DoNotOptimize(tlb.lookup(va));
    }
}
BENCHMARK(BM_FullyAssocTlbLookup);

// Lookup-only throughput of each TLB structure the fast translate path
// dispatches to, under a hit-heavy random stream.  Together with
// BM_SetAssocTlbLookup and BM_FullyAssocTlbLookup above these cover all
// six structures, so a perf-baseline regression can be attributed to
// one structure's probe loop before reaching for a profiler.

void
BM_SetAssocTlbLookupMultiSize(benchmark::State &state)
{
    // The TPS STLB configuration: one physical structure probed once
    // per live page size.  Resident sizes span the tailored range, so
    // this measures the multi-probe (liveMask) path, not the
    // degenerate single-size one.
    std::vector<unsigned> sizes;
    for (unsigned pb = 12; pb <= 24; ++pb)
        sizes.push_back(pb);
    tlb::SetAssocTlb tlb("bm", 1024, 8, sizes);
    for (int i = 0; i < 256; ++i) {
        unsigned pb = 12 + (i % 13);
        vm::Vaddr va = uint64_t(i) << 25;
        tlb.fill(makeEntry(va, (va >> 12) + 1, pb));
    }
    Pcg32 rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tlb.lookup(uint64_t(rng.below(256)) << 25));
}
BENCHMARK(BM_SetAssocTlbLookupMultiSize);

void
BM_SkewedAssocTlbLookup(benchmark::State &state)
{
    // The skewed-associative TPS TLB variant with mixed sizes resident.
    tlb::SkewedAssocTlb tlb("bm", 64, 4);
    for (int i = 0; i < 48; ++i) {
        unsigned pb = 13 + (i % 8);
        vm::Vaddr va = (1ull << 32) + (uint64_t(i) << 21);
        tlb.fill(makeEntry(va, (va >> 12) + 1, pb));
    }
    Pcg32 rng(6);
    for (auto _ : state) {
        vm::Vaddr va = (1ull << 32) + (uint64_t(rng.below(48)) << 21);
        benchmark::DoNotOptimize(tlb.lookup(va));
    }
}
BENCHMARK(BM_SkewedAssocTlbLookup);

void
BM_RangeTlbLookup(benchmark::State &state)
{
    // RMM's L2 range TLB at paper scale (32 ranges), hit-heavy.
    tlb::RangeTlb tlb(32);
    for (int i = 0; i < 32; ++i) {
        tlb::RangeEntry r;
        r.valid = true;
        r.baseVpn = uint64_t(i) << 16;
        r.limitVpn = r.baseVpn + (1 << 14) - 1;
        r.offset = i + 1;
        r.writable = true;
        r.user = true;
        tlb.fill(r);
    }
    Pcg32 rng(7);
    for (auto _ : state) {
        vm::Vaddr va = (uint64_t(rng.below(32)) << (16 + 12)) +
                       (uint64_t(rng.below(1 << 14)) << 12);
        benchmark::DoNotOptimize(tlb.lookup(va));
    }
}
BENCHMARK(BM_RangeTlbLookup);

void
BM_ColtTlbLookup(benchmark::State &state)
{
    // Coalesced TLB with full 8-page runs resident (best-case
    // coalescing, the configuration the Colt design targets).
    tlb::ColtTlb tlb(256, 4);
    for (int i = 0; i < 128; ++i) {
        tlb::ColtEntry e;
        e.valid = true;
        e.startVpn = uint64_t(i) * tlb::ColtTlb::kClusterPages;
        e.length = tlb::ColtTlb::kClusterPages;
        e.startPfn = e.startVpn + 42;
        e.writable = true;
        e.user = true;
        tlb.fill(e);
    }
    Pcg32 rng(8);
    for (auto _ : state) {
        vm::Vaddr va =
            uint64_t(rng.below(128 * tlb::ColtTlb::kClusterPages))
            << 12;
        benchmark::DoNotOptimize(tlb.lookup(va));
    }
}
BENCHMARK(BM_ColtTlbLookup);

void
BM_MemSysAccess(benchmark::State &state)
{
    // The data-cache model that every access and walk reference goes
    // through.  hot16k=0 draws from 256 MB (mostly DRAM, with the LLC
    // rows cold in the host cache); hot16k=1 from a 16 KB set that
    // stays in the modelled L1.
    uint64_t span = state.range(0) ? 16ull << 10 : 256ull << 20;
    std::vector<vm::Paddr> addrs(1 << 16);
    Pcg32 rng(8);
    for (vm::Paddr &pa : addrs)
        pa = rng.below64(span);
    sim::MemSys ms;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ms.access(addrs[i]));
        i = (i + 1) & (addrs.size() - 1);
    }
}
BENCHMARK(BM_MemSysAccess)->ArgName("hot16k")->Arg(0)->Arg(1);

void
BM_PageWalk4k(benchmark::State &state)
{
    vm::SyntheticFrameProvider provider;
    vm::PageTable pt(provider);
    for (int i = 0; i < 1024; ++i)
        pt.map(i * 0x1000ull, i + 1, 12, true, true);
    vm::PageWalker walker(pt, nullptr);
    Pcg32 rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            walker.walk(rng.below(1024) * 0x1000ull));
}
BENCHMARK(BM_PageWalk4k);

void
BM_PageWalkTailoredAlias(benchmark::State &state)
{
    vm::SyntheticFrameProvider provider;
    vm::PageTable pt(provider);
    pt.map(0, 0, 19, true, true);   // 512 KB page, 128 slots
    vm::PageWalker walker(pt, nullptr);
    Pcg32 rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            walker.walk(rng.below(128) * 0x1000ull));
}
BENCHMARK(BM_PageWalkTailoredAlias);

void
BM_BuddyAllocFree(benchmark::State &state)
{
    unsigned order = static_cast<unsigned>(state.range(0));
    os::BuddyAllocator buddy(1 << 18);
    for (auto _ : state) {
        auto pfn = buddy.alloc(order);
        buddy.free(*pfn, order);
    }
}
BENCHMARK(BM_BuddyAllocFree)->Arg(0)->Arg(4)->Arg(9);

void
BM_MmuTranslateHit(benchmark::State &state)
{
    os::PhysMemory pm(1ull << 30);
    os::AddressSpace as(pm, std::make_unique<os::TpsPolicy>());
    sim::Mmu mmu(as, nullptr,
                 sim::MmuConfig{{tlb::TlbDesign::Tps}, {}, {}, 9});
    vm::Vaddr va = as.mmap(64ull << 20);
    for (uint64_t off = 0; off < (64ull << 20); off += 0x1000)
        mmu.access(va + off, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(mmu.access(va + 0x123456, false));
}
BENCHMARK(BM_MmuTranslateHit);

void
BM_PromotionLadder(benchmark::State &state)
{
    // Cost of faulting + fully promoting one 2 MB region under TPS.
    for (auto _ : state) {
        state.PauseTiming();
        os::PhysMemory pm(256ull << 20);
        os::AddressSpace as(pm, std::make_unique<os::TpsPolicy>());
        vm::Vaddr va = as.mmap(2ull << 20);
        state.ResumeTiming();
        for (uint64_t off = 0; off < (2ull << 20); off += 0x1000)
            as.handleFault(va + off, true);
    }
}
BENCHMARK(BM_PromotionLadder)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
