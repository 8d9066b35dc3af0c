/**
 * @file
 * Model-based property tests: the page table, driven by long random
 * operation sequences, is checked after every step against a simple
 * reference model (a map of page-base -> (pfn, size)).  Runs across a
 * grid of encodings, alias modes and page-size mixes.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "util/rng.hh"
#include "vm/mmu_cache.hh"
#include "vm/page_table.hh"
#include "vm/walker.hh"

namespace tps::vm {
namespace {

/** Reference model: page base -> (pfn, pageBits). */
class ReferenceModel
{
  public:
    void
    map(Vaddr base, Pfn pfn, unsigned page_bits)
    {
        // Mapping over smaller pages removes them (promotion).
        eraseRange(base, 1ull << page_bits);
        pages_[base] = {pfn, page_bits};
    }

    bool
    unmap(Vaddr va)
    {
        auto it = find(va);
        if (it == pages_.end())
            return false;
        pages_.erase(it);
        return true;
    }

    /** The page containing @p va, or end(). */
    std::map<Vaddr, std::pair<Pfn, unsigned>>::iterator
    find(Vaddr va)
    {
        auto it = pages_.upper_bound(va);
        if (it == pages_.begin())
            return pages_.end();
        --it;
        if (va < it->first + (1ull << it->second.second))
            return it;
        return pages_.end();
    }

    const std::map<Vaddr, std::pair<Pfn, unsigned>> &all() const
    {
        return pages_;
    }

  private:
    void
    eraseRange(Vaddr base, uint64_t bytes)
    {
        auto it = pages_.lower_bound(base);
        while (it != pages_.end() && it->first < base + bytes)
            it = pages_.erase(it);
    }

    std::map<Vaddr, std::pair<Pfn, unsigned>> pages_;
};

struct ModelParam
{
    SizeEncoding enc;
    AliasMode alias;
    unsigned maxPageBits;
    const char *name;
};

/**
 * Print a ModelParam by its name. Without this gtest dumps the raw
 * bytes, including the name pointer (ASLR-dependent), so the listed
 * test names changed from one build to the next.
 */
void
PrintTo(const ModelParam &p, std::ostream *os)
{
    *os << p.name;
}

class PageTableModel : public ::testing::TestWithParam<ModelParam>
{
};

TEST_P(PageTableModel, RandomOpsMatchReference)
{
    const ModelParam &param = GetParam();
    SyntheticFrameProvider provider;
    PageTable pt(provider, param.enc, param.alias);
    ReferenceModel model;
    Pcg32 rng(0xC0FFEE + param.maxPageBits);

    // Virtual arena: 4 GB region; all pages naturally aligned inside.
    constexpr Vaddr kArena = 1ull << 40;
    constexpr uint64_t kArenaBytes = 4ull << 30;

    auto random_page = [&](unsigned &page_bits, Vaddr &base) {
        page_bits = kBasePageBits +
                    rng.below(param.maxPageBits - kBasePageBits + 1);
        uint64_t slots = kArenaBytes >> page_bits;
        base = kArena + (rng.below64(slots) << page_bits);
    };

    uint64_t next_pfn_block = 1;
    for (int op = 0; op < 4000; ++op) {
        unsigned page_bits;
        Vaddr base;
        random_page(page_bits, base);
        double dice = rng.uniform();

        if (dice < 0.55) {
            // Map: skip if any *larger* page overlaps (the real table
            // requires demotion first; the model mirrors that rule).
            auto hit = model.find(base);
            bool blocked =
                hit != model.all().end() &&
                hit->second.second > page_bits &&
                hit->first != base;
            if (!blocked && hit != model.all().end() &&
                hit->second.second > page_bits)
                blocked = true;   // same base but larger: still demote
            if (blocked)
                continue;
            unsigned frames_bits = page_bits - kBasePageBits;
            Pfn pfn = (next_pfn_block++) << frames_bits;
            pt.map(base, pfn, page_bits, true, true);
            model.map(base, pfn, page_bits);
        } else if (dice < 0.8) {
            // Unmap whatever page contains a random address.
            Vaddr probe = base + (rng.below64(1ull << page_bits));
            auto removed = pt.unmap(probe);
            bool model_removed = model.unmap(probe);
            ASSERT_EQ(removed.has_value(), model_removed);
        } else {
            // Lookup at a random offset and cross-check.
            Vaddr probe = base + (rng.below64(1ull << page_bits));
            auto res = pt.lookup(probe);
            auto ref = model.find(probe);
            if (ref == model.all().end()) {
                ASSERT_FALSE(res.has_value()) << std::hex << probe;
            } else {
                ASSERT_TRUE(res.has_value()) << std::hex << probe;
                ASSERT_EQ(res->pageBase, ref->first);
                ASSERT_EQ(res->leaf.pageBits, ref->second.second);
                ASSERT_EQ(res->leaf.pfn, ref->second.first);
            }
        }
    }

    // Final sweep: every model page translates exactly; count matches.
    uint64_t visited = 0;
    pt.forEachLeaf([&](Vaddr base, const LeafInfo &leaf) {
        ++visited;
        auto ref = model.find(base);
        ASSERT_NE(ref, model.all().end());
        EXPECT_EQ(base, ref->first);
        EXPECT_EQ(leaf.pageBits, ref->second.second);
        EXPECT_EQ(leaf.pfn, ref->second.first);
    });
    EXPECT_EQ(visited, model.all().size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PageTableModel,
    ::testing::Values(
        ModelParam{SizeEncoding::Napot, AliasMode::Pointer, 21,
                   "napot_ptr_small"},
        ModelParam{SizeEncoding::Napot, AliasMode::Pointer, 30,
                   "napot_ptr_full"},
        ModelParam{SizeEncoding::Napot, AliasMode::FullCopy, 30,
                   "napot_copy_full"},
        ModelParam{SizeEncoding::SizeField, AliasMode::Pointer, 30,
                   "field_ptr_full"},
        ModelParam{SizeEncoding::SizeField, AliasMode::FullCopy, 25,
                   "field_copy_mid"}),
    [](const ::testing::TestParamInfo<ModelParam> &info) {
        return info.param.name;
    });

/** The walker agrees with functional lookup on every mapped page. */
TEST(PageTableModel, WalkerMatchesLookupAfterRandomOps)
{
    SyntheticFrameProvider provider;
    PageTable pt(provider);
    MmuCache cache;
    PageWalker walker(pt, &cache);
    Pcg32 rng(77);

    constexpr Vaddr kArena = 1ull << 41;
    std::vector<Vaddr> bases;
    for (int i = 0; i < 300; ++i) {
        unsigned page_bits = 12 + rng.below(15);
        uint64_t slots = (2ull << 30) >> page_bits;
        Vaddr base = kArena + (rng.below64(slots) << page_bits);
        if (pt.lookup(base).has_value())
            continue;
        // Skip if the region overlaps an existing larger/smaller page.
        bool overlap = false;
        pt.forEachLeafInRange(base, base + (1ull << page_bits),
                              [&](Vaddr, const LeafInfo &) {
                                  overlap = true;
                              });
        if (overlap)
            continue;
        Pfn pfn = static_cast<Pfn>(i + 1)
                  << (page_bits - kBasePageBits);
        pt.map(base, pfn, page_bits, true, true);
        bases.push_back(base);
    }

    for (Vaddr base : bases) {
        auto ref = pt.lookup(base);
        ASSERT_TRUE(ref.has_value());
        // Probe several offsets, including ones that land on aliases.
        for (int i = 0; i < 4; ++i) {
            uint64_t off =
                rng.below64(1ull << ref->leaf.pageBits);
            WalkResult walk = walker.walk(base + off);
            ASSERT_FALSE(walk.fault);
            EXPECT_EQ(walk.leaf.pfn, ref->leaf.pfn);
            EXPECT_EQ(walk.leaf.pageBits, ref->leaf.pageBits);
            EXPECT_EQ(walk.pageBase, base);
        }
    }
}

} // namespace
} // namespace tps::vm
