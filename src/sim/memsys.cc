#include "sim/memsys.hh"

#include "obs/stats_bindings.hh"
#include "util/bitops.hh"

namespace tps::sim {

template <typename Tag>
void
MemSys::Level<Tag>::init(uint64_t bytes, unsigned ways, unsigned line_bytes)
{
    tps_assert(ways >= 1 && ways <= kMaxWays);
    uint64_t lines = bytes / line_bytes;
    tps_assert(lines % ways == 0);
    uint64_t sets = lines / ways;
    tps_assert(isPowerOfTwo(sets));
    setMask_ = sets - 1;
    setShift_ = log2Floor(sets);
    rowsPerSet_ = (ways + Row::kWays - 1) / Row::kWays;

    Row empty;
    for (Tag &t : empty.tag)
        t = kInvalidTag;
    rows_.assign(sets * rowsPerSet_, empty);

    Ranks fresh;
    for (unsigned w = 0; w < kMaxWays; ++w)
        fresh.rank[w] = w < ways ? static_cast<uint8_t>(ways - 1 - w)
                                 : kPadRank;
    ranks_.assign(sets, fresh);
    lruRank_ = _mm_set1_epi8(static_cast<char>(ways - 1));
}

template class MemSys::Level<uint32_t>;
template class MemSys::Level<uint64_t>;

MemSys::MemSys(const MemSysConfig &cfg)
    : cfg_(cfg)
{
    tps_assert(isPowerOfTwo(uint64_t(cfg_.lineBytes)));
    lineShift_ = log2Floor(cfg_.lineBytes);
    l1_.init(cfg_.l1Bytes, cfg_.l1Ways, cfg_.lineBytes);
    llc_.init(cfg_.llcBytes, cfg_.llcWays, cfg_.lineBytes);
}

void
MemSys::registerStats(obs::StatRegistry &reg, const std::string &prefix)
{
    obs::bindMemSysStats(reg, prefix, &stats_);
}

} // namespace tps::sim
