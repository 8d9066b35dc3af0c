/**
 * @file
 * Oracle test for the data-cache model.
 *
 * MemSys keeps each set as a row of tags plus a vector of LRU ranks.
 * The reference below is the model it replaced, kept verbatim in
 * behaviour: per-way 64-bit tags and 64-bit last-use stamps, hit by tag
 * scan, victim by first stamp-minimum.  Every access's latency and the
 * final MemSysStats must agree over random, hot-set, sequential and
 * same-set-stride streams, at the Table I geometry and at small set
 * counts for every supported associativity class, including addresses
 * at the synthetic frames (2^48) and at the top of the LLC tag reach.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/memsys.hh"
#include "util/bitops.hh"
#include "util/rng.hh"

namespace tps::sim {
namespace {

/** Timestamp-LRU data-cache model: the oracle. */
class RefMemSys
{
  public:
    explicit RefMemSys(const MemSysConfig &cfg)
        : cfg_(cfg), lineShift_(log2Floor(cfg.lineBytes))
    {
        l1_.init(cfg.l1Bytes, cfg.l1Ways, cfg.lineBytes);
        llc_.init(cfg.llcBytes, cfg.llcWays, cfg.lineBytes);
    }

    unsigned
    access(vm::Paddr pa)
    {
        ++stats_.accesses;
        ++tick_;
        uint64_t line = pa >> lineShift_;
        if (l1_.lookupFill(line, tick_)) {
            ++stats_.l1Hits;
            return cfg_.l1LatencyCycles;
        }
        if (llc_.lookupFill(line, tick_)) {
            ++stats_.llcHits;
            return cfg_.llcLatencyCycles;
        }
        ++stats_.dramAccesses;
        return cfg_.dramLatencyCycles;
    }

    const MemSysStats &stats() const { return stats_; }

  private:
    struct Level
    {
        static constexpr uint64_t kInvalidTag = ~0ull;

        unsigned sets = 0;
        unsigned ways = 0;
        unsigned setShift = 0;
        std::vector<uint64_t> tags;    //!< sets x ways
        std::vector<uint64_t> lastUse; //!< LRU stamps

        void
        init(uint64_t bytes, unsigned w, unsigned line)
        {
            ways = w;
            uint64_t lines = bytes / line;
            sets = static_cast<unsigned>(lines / ways);
            setShift = log2Floor(sets);
            tags.assign(lines, kInvalidTag);
            lastUse.assign(lines, 0);
        }

        bool
        lookupFill(uint64_t line_addr, uint64_t tick)
        {
            unsigned set = static_cast<unsigned>(line_addr & (sets - 1));
            uint64_t tag = line_addr >> setShift;
            unsigned base = set * ways;
            unsigned hit = ways;
            for (unsigned w = 0; w < ways; ++w)
                hit = tags[base + w] == tag ? w : hit;
            if (hit != ways) {
                lastUse[base + hit] = tick;
                return true;
            }
            // Miss: victim is the first stamp-minimum way.  Invalid
            // ways keep stamp 0, below every valid stamp (ticks start
            // at 1), so an empty way wins over LRU eviction.
            unsigned lru = 0;
            uint64_t lru_use = ~0ull;
            for (unsigned w = 0; w < ways; ++w) {
                bool older = lastUse[base + w] < lru_use;
                lru = older ? w : lru;
                lru_use = older ? lastUse[base + w] : lru_use;
            }
            unsigned victim = base + lru;
            tags[victim] = tag;
            lastUse[victim] = tick;
            return false;
        }
    };

    MemSysConfig cfg_;
    unsigned lineShift_;
    Level l1_;
    Level llc_;
    uint64_t tick_ = 0;
    MemSysStats stats_;
};

/** A named geometry: Table I, or small set counts at @p ways ways. */
struct Geometry
{
    std::string name;
    MemSysConfig cfg;
};

std::vector<Geometry>
geometries()
{
    std::vector<Geometry> out{{"tableI", MemSysConfig{}}};
    const unsigned kWays[] = {1, 2, 4, 12, 16};
    for (unsigned i = 0; i < 5; ++i) {
        // Pair each L1 associativity with a different LLC one, so both
        // levels see every class and the 64-bit-tag L1 spans two rows.
        unsigned l1_ways = kWays[i];
        unsigned llc_ways = kWays[(i + 2) % 5];
        MemSysConfig cfg;
        cfg.l1Ways = l1_ways;
        cfg.l1Bytes = uint64_t(cfg.lineBytes) * l1_ways * 4;
        cfg.llcWays = llc_ways;
        cfg.llcBytes = uint64_t(cfg.lineBytes) * llc_ways * 16;
        out.push_back({"l1w" + std::to_string(l1_ways) + "_llcw" +
                           std::to_string(llc_ways),
                       cfg});
    }
    return out;
}

uint64_t
llcSets(const MemSysConfig &cfg)
{
    return cfg.llcBytes / cfg.lineBytes / cfg.llcWays;
}

/** First byte address the LLC's 32-bit tags cannot hold. */
uint64_t
llcReach(const MemSysConfig &cfg)
{
    return 0xffffffffull * llcSets(cfg) * cfg.lineBytes;
}

using Stream = std::function<uint64_t(Pcg32 &)>;

/** The access patterns, each over a region based at @p base. */
std::vector<std::pair<std::string, Stream>>
streams(const MemSysConfig &cfg, uint64_t base)
{
    const uint64_t line = cfg.lineBytes;
    const uint64_t span = 4 * cfg.llcBytes;
    const uint64_t stride = llcSets(cfg) * line;
    auto seq = std::make_shared<uint64_t>(0);
    return {
        {"random",
         [=](Pcg32 &rng) { return base + rng.below64(span); }},
        {"hotset",
         [=](Pcg32 &rng) {
             // Nine in ten accesses reuse a set twice the L1's size
             // (inside the region, which can be smaller).
             uint64_t hot = std::min(2 * cfg.l1Bytes, span);
             return base + (rng.below(10) ? rng.below64(hot)
                                          : rng.below64(span));
         }},
        {"sequential",
         [=](Pcg32 &rng) {
             // A streaming sweep with an occasional step back.
             uint64_t off = *seq;
             *seq = rng.below(8) ? (off + line / 2) % span
                                 : (off + span - 4 * line) % span;
             return base + off;
         }},
        {"samesetstride",
         [=](Pcg32 &rng) {
             // ways + 3 lines that all map to one LLC set.
             uint64_t k = rng.below(cfg.llcWays + 3);
             return base + 5 * line + k * stride;
         }},
    };
}

/** Run @p n accesses of @p next through both models. */
void
expectStreamMatches(const Geometry &g, const std::string &name,
                    const Stream &next, uint64_t seed, unsigned n)
{
    SCOPED_TRACE(g.name + "/" + name);
    MemSys dut(g.cfg);
    RefMemSys ref(g.cfg);
    Pcg32 rng(seed);
    for (unsigned i = 0; i < n; ++i) {
        uint64_t pa = next(rng);
        unsigned want = ref.access(pa);
        ASSERT_EQ(dut.access(pa), want)
            << "access " << i << " pa=0x" << std::hex << pa;
    }
    EXPECT_EQ(dut.stats().accesses, ref.stats().accesses);
    EXPECT_EQ(dut.stats().l1Hits, ref.stats().l1Hits);
    EXPECT_EQ(dut.stats().llcHits, ref.stats().llcHits);
    EXPECT_EQ(dut.stats().dramAccesses, ref.stats().dramAccesses);
    // The stream must exercise every level, or it proves little.
    EXPECT_GT(ref.stats().l1Hits, 0u);
    EXPECT_GT(ref.stats().dramAccesses, 0u);
}

/** Every stream of streams() based at @p base. */
void
expectMatchesOracle(const Geometry &g, uint64_t base, uint64_t seed,
                    unsigned n)
{
    for (auto &[name, next] : streams(g.cfg, base))
        expectStreamMatches(g, name + " base=" + std::to_string(base),
                            next, seed, n);
}

TEST(MemSysOracle, MatchesTimestampLruAtZero)
{
    for (const Geometry &g : geometries())
        for (uint64_t seed : {1, 2})
            expectMatchesOracle(g, 0, seed, 60000);
}

TEST(MemSysOracle, MatchesTimestampLruAtSyntheticFrames)
{
    // SyntheticFrameProvider frames sit at 2^48; straddle it.
    Geometry table1 = geometries().front();
    uint64_t base = (1ull << 48) - 2 * table1.cfg.llcBytes;
    expectMatchesOracle(table1, base, 3, 200000);
}

TEST(MemSysOracle, L1TagsCompareAllSixtyFourBits)
{
    // Lines 2^44 bytes apart share one L1 set and the low 32 bits of
    // their L1 tag: a compare of only those bits would report hits
    // between them.
    Geometry table1 = geometries().front();
    Stream aliases = [](Pcg32 &rng) {
        return (1ull << 46) + rng.below(4) * (1ull << 44) +
               rng.below(32) * 64 * 64;
    };
    expectStreamMatches(table1, "aliases2^44", aliases, 5, 20000);
}

TEST(MemSysOracle, MatchesTimestampLruAtTopOfTagReach)
{
    // The largest LLC tags the 32-bit rows can hold.
    for (const Geometry &g : geometries()) {
        uint64_t base = llcReach(g.cfg) - 4 * g.cfg.llcBytes;
        expectMatchesOracle(g, base, 4, 20000);
    }
}

TEST(MemSysOracle, TableIReachIsJustBelow2To49)
{
    MemSysConfig cfg;
    EXPECT_EQ(llcReach(cfg), (1ull << 49) - (128ull << 10));
    MemSys ms(cfg);
    EXPECT_EQ(ms.access(llcReach(cfg) - 1), cfg.dramLatencyCycles);
}

TEST(MemSysOracleDeathTest, AddressBeyondLlcReachPanics)
{
    MemSysConfig cfg;
    EXPECT_DEATH(
        {
            MemSys ms(cfg);
            ms.access(1ull << 49);
        },
        "assertion failed");
    EXPECT_DEATH(
        {
            MemSys ms(cfg);
            ms.access(llcReach(cfg));
        },
        "assertion failed");
}

TEST(MemSysOracleDeathTest, MoreThanSixteenWaysRejected)
{
    MemSysConfig cfg;
    cfg.llcWays = 32;
    EXPECT_DEATH(MemSys{cfg}, "assertion failed");
}

} // namespace
} // namespace tps::sim
