#include "spans.hh"

#include <chrono>
#include <stdexcept>

namespace simbench {

const char *
spanName(SpanName name)
{
    static const char *const names[kSpanNames] = {
        "cell",           "setup",          "core.assemble",
        "os.fragmenter",  "workloads.setup", "os.mmap",
        "os.munmap",      "sim.engine",     "workloads.gen",
        "obs.stats_json", "obs.trace_encode", "os.teardown",
        "replay",         "replay.setup",   "replay.gen",
        "tlb.translate",  "sim.memsys",     "sim.cycle",
    };
    return names[static_cast<size_t>(name)];
}

int64_t
SpanRecorder::now()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int32_t
SpanRecorder::open(SpanName name, uint32_t cell)
{
    int64_t t = now();
    int32_t id = add(name, cell, current(), t, t);
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int32_t id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order");
    stack_.pop_back();
    spans_[id].endNs = now();
}

int32_t
SpanRecorder::add(SpanName name, uint32_t cell, int32_t parent,
                  int64_t start_ns, int64_t end_ns)
{
    spans_.push_back(Span{start_ns, end_ns, parent, cell, name});
    return static_cast<int32_t>(spans_.size() - 1);
}

std::array<double, kSpanNames>
SpanRecorder::selfSeconds() const
{
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child_ns[s.parent] += s.endNs - s.startNs;
    }
    std::array<double, kSpanNames> out{};
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[static_cast<size_t>(s.name)] +=
            static_cast<double>(s.endNs - s.startNs - child_ns[i]) * 1e-9;
    }
    return out;
}

void
SpanRecorder::writeJsonLines(std::FILE *out) const
{
    for (const Span &s : spans_) {
        std::fprintf(out,
                     "{\"name\":\"%s\",\"cell\":%u,\"parent\":%d,"
                     "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     spanName(s.name), s.cell, s.parent,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
}

} // namespace simbench
