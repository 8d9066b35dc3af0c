#include "obs/sweep_monitor.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"
#include "util/task_pool.hh"

namespace tps::obs {

namespace {

/** "3.2s" / "2m06s" rendering for progress lines. */
std::string
fmtSeconds(double s)
{
    char buf[32];
    if (s < 60.0) {
        std::snprintf(buf, sizeof(buf), "%.1fs", s);
    } else {
        std::snprintf(buf, sizeof(buf), "%dm%02ds", int(s) / 60,
                      int(s) % 60);
    }
    return buf;
}

/** Wall-clock milliseconds since the Unix epoch. */
uint64_t
unixMillis()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/**
 * Tolerant atomic file write for heartbeats: tmp + rename so readers
 * never see a torn file, and warn-once instead of tps_fatal so an
 * unwritable heartbeat path can never kill a running sweep.
 */
void
writeFileTolerant(const std::string &path, const std::string &bytes)
{
    std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        tps_warn_once("cannot write heartbeat file %s: %s",
                      tmp.c_str(), std::strerror(errno));
        return;
    }
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        tps_warn_once("cannot update heartbeat file %s", path.c_str());
    }
}

} // namespace

uint64_t
peakRssBytes()
{
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            unsigned long long kb = 0;
            if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
                std::fclose(f);
                return uint64_t(kb) * 1024;
            }
        }
        std::fclose(f);
    }
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        return uint64_t(ru.ru_maxrss) * 1024;
    return 0;
}

SweepMonitor::SweepMonitor() : SweepMonitor(Config{}) {}

SweepMonitor::SweepMonitor(Config cfg)
    : cfg_(std::move(cfg)), start_(std::chrono::steady_clock::now())
{
    if (cfg_.heartbeatPath.empty())
        return;
    beat_ = std::jthread([this](std::stop_token st) {
        writeHeartbeat(false);
        std::mutex m;
        std::condition_variable_any cv;
        auto interval = std::chrono::duration<double>(
            cfg_.heartbeatIntervalSeconds > 0.0
                ? cfg_.heartbeatIntervalSeconds
                : 5.0);
        std::unique_lock<std::mutex> lock(m);
        while (true) {
            cv.wait_for(lock, st, interval, [] { return false; });
            if (st.stop_requested())
                return;
            writeHeartbeat(false);
        }
    });
}

SweepMonitor::~SweepMonitor()
{
    if (beat_.joinable()) {
        beat_.request_stop();
        beat_.join();
        // Final write: the file on disk ends saying finished = true.
        writeHeartbeat(true);
    }
}

uint64_t
SweepMonitor::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
SweepMonitor::addPlanned(size_t cells)
{
    std::lock_guard<std::mutex> lock(mu_);
    planned_ += cells;
}

void
SweepMonitor::setShard(unsigned index, unsigned count,
                       const std::string &gridFingerprint)
{
    std::lock_guard<std::mutex> lock(mu_);
    shardIndex_ = index;
    shardCount_ = count;
    gridFingerprint_ = gridFingerprint;
}

uint64_t
SweepMonitor::begin(const std::string &label)
{
    uint64_t start = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.label = label;
    span.worker = util::TaskPool::currentWorkerIndex();
    span.startUs = start;
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
}

void
SweepMonitor::end(uint64_t id)
{
    uint64_t now = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    tps_assert(id < spans_.size() && !spans_[id].done);
    spans_[id].endUs = now;
    spans_[id].done = true;
    ++done_;
    lastLabel_ = spans_[id].label;
    if (cfg_.progress)
        printProgress(spans_[id]);
}

void
SweepMonitor::annotate(unsigned attempts, const std::string &errorKind,
                       double wallMs)
{
    int worker = util::TaskPool::currentWorkerIndex();
    std::lock_guard<std::mutex> lock(mu_);
    if (attempts > 1)
        retried_ += attempts - 1;
    if (!errorKind.empty())
        ++failed_;
    // The caller's open span is the newest not-yet-done one on its own
    // worker: spans nest LIFO within a thread, so reverse scan finds it.
    for (size_t i = spans_.size(); i-- > 0;) {
        Span &span = spans_[i];
        if (span.done || span.worker != worker)
            continue;
        span.attempts = attempts;
        span.errorKind = errorKind;
        span.wallMs = wallMs;
        return;
    }
}

size_t
SweepMonitor::planned() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return planned_;
}

size_t
SweepMonitor::completed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
}

void
SweepMonitor::printProgress(const Span &last) const
{
    // Called with mu_ held.
    size_t total = planned_ > done_ ? planned_ : done_;
    double elapsed = double(nowUs()) / 1e6;
    // Throughput-based ETA: cells finish concurrently, so per-span
    // means would be pessimistic by the pool width.
    double eta = done_ > 0 ? elapsed * double(total - done_) / double(done_)
                           : 0.0;
    double lastSec = double(last.endUs - last.startUs) / 1e6;
    bool tty = isatty(fileno(stderr));
    std::fprintf(stderr, "%s[%s] %zu/%zu cells  elapsed %s  eta %s  "
                         "(last: %s %s)%s",
                 tty ? "\r\033[K" : "", cfg_.bench.c_str(), done_, total,
                 fmtSeconds(elapsed).c_str(), fmtSeconds(eta).c_str(),
                 last.label.c_str(), fmtSeconds(lastSec).c_str(),
                 tty ? (done_ >= total ? "\n" : "") : "\n");
    std::fflush(stderr);
}

Json
SweepMonitor::traceJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Json root = Json::object();
    root["displayTimeUnit"] = std::string("ms");
    Json events = Json::array();

    // Shard index flows into the pid (unsharded sweeps keep pid 1, the
    // historical value) so per-shard trace files concatenated into one
    // viewer land on distinct, ordered process rows.
    uint64_t pid = 1 + shardIndex_;
    std::string processName =
        cfg_.bench.empty() ? std::string("sweep") : cfg_.bench;
    if (shardCount_ > 1) {
        processName += " [shard " + std::to_string(shardIndex_) + "/" +
                       std::to_string(shardCount_) + "]";
    }
    Json process = Json::object();
    process["name"] = std::string("process_name");
    process["ph"] = std::string("M");
    process["pid"] = pid;
    process["tid"] = uint64_t(0);
    process["args"]["name"] = processName;
    events.push(std::move(process));
    if (shardCount_ > 1) {
        Json sort = Json::object();
        sort["name"] = std::string("process_sort_index");
        sort["ph"] = std::string("M");
        sort["pid"] = pid;
        sort["tid"] = uint64_t(0);
        sort["args"]["sort_index"] = uint64_t(shardIndex_);
        events.push(std::move(sort));
    }

    // One thread_name row per tid seen: tid 0 is the calling thread,
    // tid w+1 is pool worker w.
    int maxWorker = -1;
    for (const Span &span : spans_)
        if (span.worker > maxWorker)
            maxWorker = span.worker;
    for (int tid = 0; tid <= maxWorker + 1; ++tid) {
        Json meta = Json::object();
        meta["name"] = std::string("thread_name");
        meta["ph"] = std::string("M");
        meta["pid"] = pid;
        meta["tid"] = uint64_t(tid);
        meta["args"]["name"] =
            tid == 0 ? std::string("caller")
                     : "worker " + std::to_string(tid - 1);
        events.push(std::move(meta));
    }

    for (const Span &span : spans_) {
        if (!span.done)
            continue;
        Json ev = Json::object();
        ev["name"] = span.label;
        ev["ph"] = std::string("X");
        ev["pid"] = pid;
        ev["tid"] = uint64_t(span.worker + 1);
        ev["ts"] = span.startUs;
        ev["dur"] = span.endUs - span.startUs;
        if (span.attempts != 0) {
            ev["args"]["attempts"] = uint64_t(span.attempts);
            if (!span.errorKind.empty())
                ev["args"]["errorKind"] = span.errorKind;
            if (span.wallMs > 0.0)
                ev["args"]["wallMs"] = span.wallMs;
        }
        events.push(std::move(ev));
    }
    root["traceEvents"] = std::move(events);
    return root;
}

Json
SweepMonitor::heartbeatJson(bool finished) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double elapsed = double(nowUs()) / 1e6;
    double rate = elapsed > 0.0 ? double(done_) / elapsed : 0.0;
    size_t total = planned_ > done_ ? planned_ : done_;
    double eta =
        rate > 0.0 ? double(total - done_) / rate : 0.0;

    Json j = Json::object();
    j["format"] = std::string("tps-heartbeat");
    j["version"] = uint64_t(1);
    j["bench"] = cfg_.bench;
    j["pid"] = uint64_t(getpid());
    Json &shard = j["shard"];
    shard["index"] = shardIndex_;
    shard["count"] = shardCount_;
    shard["gridFingerprint"] = gridFingerprint_;
    j["intervalSeconds"] = cfg_.heartbeatIntervalSeconds;
    j["updatedUnixMs"] = unixMillis();
    j["elapsedSeconds"] = elapsed;
    j["planned"] = uint64_t(planned_);
    j["done"] = uint64_t(done_);
    j["failed"] = uint64_t(failed_);
    j["retried"] = uint64_t(retried_);
    j["cellsPerSec"] = rate;
    j["etaSeconds"] = finished ? 0.0 : eta;
    j["rssPeakBytes"] = peakRssBytes();
    j["lastCell"] = lastLabel_;
    j["finished"] = finished;
    return j;
}

void
SweepMonitor::writeHeartbeat(bool finished) const
{
    // Serialize outside any lock-holding caller: heartbeatJson() takes
    // mu_ itself, the file write happens lock-free.
    writeFileTolerant(cfg_.heartbeatPath,
                      heartbeatJson(finished).dump(2) + "\n");
}

void
SweepMonitor::writeTrace(const std::string &path) const
{
    writeJsonFile(path, traceJson());
}

} // namespace tps::obs
