/**
 * @file
 * Data-cache latency model (Table I geometry): L1D + LLC + DRAM.
 *
 * Both demand accesses and page-walk references flow through it, so
 * walks naturally benefit from PTE caching in the data hierarchy (as in
 * real processors and as the paper's related work notes).  The model
 * tracks cache-line residency only (no data), with set-associative LRU
 * arrays, and returns the access latency in cycles.
 *
 * Each set is one 64-byte, host-cache-line-aligned row of tags plus one
 * 16-byte vector of LRU ranks (0 = most recently used), probed with
 * SSE2: a compare plus movemask finds the hit way, a compare against
 * ways-1 on the ranks finds the victim, and one compare/subtract ages
 * every way younger than the touched one.  The LLC keeps 32-bit tags
 * (16 ways x 4 B fill a row), which reach physical addresses just
 * below 2^49 at the Table I geometry; the L1 keeps 64-bit tags (8 ways
 * x 8 B fill a row), because a 32-bit L1 tag would end at 2^44, below
 * the synthetic frames at 2^48.
 */

#ifndef TPS_SIM_MEMSYS_HH
#define TPS_SIM_MEMSYS_HH

#if !defined(__SSE2__)
#error "the data-cache model's set probe needs SSE2 (x86-64)"
#endif

#include <emmintrin.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "vm/addr.hh"

namespace tps::obs {
class StatRegistry;
} // namespace tps::obs

namespace tps::sim {

/** Cache/DRAM latency knobs (defaults follow Table I). */
struct MemSysConfig
{
    unsigned lineBytes = 64;
    uint64_t l1Bytes = 32 * 1024;
    unsigned l1Ways = 8;
    unsigned l1LatencyCycles = 4;
    uint64_t llcBytes = 2 * 1024 * 1024;
    unsigned llcWays = 16;
    unsigned llcLatencyCycles = 10;
    unsigned dramLatencyCycles = 200;
};

/** Per-level hit statistics. */
struct MemSysStats
{
    uint64_t accesses = 0;
    uint64_t l1Hits = 0;
    uint64_t llcHits = 0;
    uint64_t dramAccesses = 0;
};

/** The two-level cache + DRAM latency model. */
class MemSys
{
  public:
    /** Most ways a level may have: one rank vector holds 16. */
    static constexpr unsigned kMaxWays = 16;

    /**
     * @pre lineBytes and the set count of each level are powers of
     *      two, and each level has 1 to kMaxWays ways.
     */
    explicit MemSys(const MemSysConfig &cfg = MemSysConfig{});

    /**
     * Access @p pa; returns the latency in cycles.  Panics when @p pa
     * lies beyond the LLC's 32-bit tag reach (addresses from
     * (2^32 - 1) * LLC sets * lineBytes up).
     */
    unsigned
    access(vm::Paddr pa)
    {
        ++stats_.accesses;
        uint64_t line = pa >> lineShift_;
        // Start the LLC row fetch while the L1 probe runs: the LLC
        // arrays are the one structure too large to stay cache-hot,
        // and most L1 misses go on to probe them.
        llc_.prefetch(line);
        if (l1_.lookupFill(line)) {
            ++stats_.l1Hits;
            return cfg_.l1LatencyCycles;
        }
        if (llc_.lookupFill(line)) {
            ++stats_.llcHits;
            return cfg_.llcLatencyCycles;
        }
        ++stats_.dramAccesses;
        return cfg_.dramLatencyCycles;
    }

    const MemSysStats &stats() const { return stats_; }
    void clearStats() { stats_ = MemSysStats{}; }
    const MemSysConfig &config() const { return cfg_; }

    /** Register the live per-level hit counters under @p prefix. */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix);

  private:
    /**
     * One set-associative tag array with rank LRU.
     *
     * Ranks start as ways-1 ... 0 (way 0 oldest), so an empty set fills
     * way 0, 1, 2, ... in order and invalid ways rank below every valid
     * one.  The model never invalidates, so ranks order the ways exactly
     * as last-use stamps would: hits, victims and way placement are
     * those of timestamp LRU with a first-minimum victim scan.
     */
    template <typename Tag>
    class Level
    {
      public:
        void init(uint64_t bytes, unsigned ways, unsigned line_bytes);

        /**
         * Start fetching @p line's set into the host cache.  Always
         * inlined: out of line, GCC deems a function of two prefetches
         * side-effect free and deletes the call.
         */
        [[gnu::always_inline]] void
        prefetch(uint64_t line) const
        {
            size_t set = line & setMask_;
            __builtin_prefetch(&rows_[set * rowsPerSet_]);
            __builtin_prefetch(&ranks_[set]);
        }

        /** Probe for @p line; on a miss, fill it over the LRU way. */
        bool
        lookupFill(uint64_t line)
        {
            size_t set = line & setMask_;
            uint64_t wide_tag = line >> setShift_;
            if constexpr (sizeof(Tag) < sizeof(uint64_t))
                tps_assert(wide_tag < kInvalidTag);
            Tag tag = static_cast<Tag>(wide_tag);
            Row *rows = &rows_[set * rowsPerSet_];
            uint32_t hits = 0;
            for (unsigned r = 0; r < rowsPerSet_; ++r)
                hits |= rows[r].match(tag) << (16 * r);
            uint8_t *rank = ranks_[set].rank;
            __m128i ranks =
                _mm_load_si128(reinterpret_cast<const __m128i *>(rank));
            unsigned way;
            if (hits) {
                way = __builtin_ctz(hits) / Row::kBitsPerWay;
            } else {
                way = __builtin_ctz(_mm_movemask_epi8(
                    _mm_cmpeq_epi8(ranks, lruRank_)));
                rows[way / Row::kWays].tag[way % Row::kWays] = tag;
            }
            // Age every way younger than the touched one; it becomes
            // the MRU.  Padding lanes hold kPadRank and never move.
            __m128i touched = _mm_set1_epi8(static_cast<char>(rank[way]));
            __m128i younger = _mm_cmplt_epi8(ranks, touched);
            __m128i self = _mm_cmpeq_epi8(ranks, touched);
            ranks = _mm_andnot_si128(self, _mm_sub_epi8(ranks, younger));
            _mm_store_si128(reinterpret_cast<__m128i *>(rank), ranks);
            return hits != 0;
        }

      private:
        /**
         * Tag no line can produce: invalid and padding ways carry it,
         * so the probe is a pure tag compare with no valid array.
         */
        static constexpr Tag kInvalidTag = static_cast<Tag>(~Tag(0));
        /** Rank of the lanes past the last way (>= kMaxWays, < 128). */
        static constexpr uint8_t kPadRank = 0x7f;

        /** One host cache line of tags. */
        struct alignas(64) Row
        {
            static constexpr unsigned kWays = 64 / sizeof(Tag);
            /** Bits of match()'s mask per way. */
            static constexpr unsigned kBitsPerWay = sizeof(Tag) / 4;

            Tag tag[kWays];

            /**
             * 16-bit mask with bit w * kBitsPerWay set iff tag[w] ==
             * @p t.
             */
            uint32_t
            match(Tag t) const
            {
                const __m128i *v = reinterpret_cast<const __m128i *>(tag);
                __m128i key = sizeof(Tag) == 4
                                  ? _mm_set1_epi32(static_cast<int>(t))
                                  : _mm_set1_epi64x(
                                        static_cast<long long>(t));
                // Four 32-bit-lane compares packed down to one byte per
                // lane, then one movemask.
                __m128i lo = _mm_packs_epi32(
                    _mm_cmpeq_epi32(_mm_load_si128(v), key),
                    _mm_cmpeq_epi32(_mm_load_si128(v + 1), key));
                __m128i hi = _mm_packs_epi32(
                    _mm_cmpeq_epi32(_mm_load_si128(v + 2), key),
                    _mm_cmpeq_epi32(_mm_load_si128(v + 3), key));
                uint32_t m = static_cast<uint32_t>(
                    _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
                if constexpr (sizeof(Tag) == 8)
                    m &= (m >> 1) & 0x5555; // both halves of a tag match
                return m;
            }
        };

        /** The LRU ranks of one set, one byte per way. */
        struct alignas(16) Ranks
        {
            uint8_t rank[kMaxWays];
        };

        std::vector<Row> rows_;     //!< sets x rowsPerSet_
        std::vector<Ranks> ranks_;  //!< one per set
        __m128i lruRank_ = _mm_setzero_si128(); //!< ways-1 in every lane
        uint64_t setMask_ = 0;
        unsigned setShift_ = 0;     //!< log2(sets), for the tag
        unsigned rowsPerSet_ = 1;
    };

    MemSysConfig cfg_;
    Level<uint64_t> l1_;
    Level<uint32_t> llc_;
    unsigned lineShift_ = 6;
    MemSysStats stats_;
};

} // namespace tps::sim

#endif // TPS_SIM_MEMSYS_HH
