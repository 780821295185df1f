#include "obs/spans.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/stats_emitter.h"
#include "util/json.h"

namespace atum::obs {

uint64_t MonotonicNowNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

const char* PhaseName(Phase phase)
{
    switch (phase) {
        case Phase::kDispatch: return "dispatch";
        case Phase::kTranslate: return "translate";
        case Phase::kMemory: return "memory";
        case Phase::kTracer: return "tracer";
        case Phase::kDrain: return "drain";
        case Phase::kCheckpoint: return "checkpoint";
        case Phase::kIo: return "io";
    }
    return "unknown";
}

#if ATUM_TRACING_ENABLED

namespace {

constexpr int kDefaultRingLog2 = 12;  // 4096 spans/thread ≈ 700 KB

/**
 * One span ring. Single writer (the thread holding it); `head` counts
 * spans ever recorded, the slot index is `head & mask`. When its thread
 * exits the ring goes back to the collector's free list with its spans
 * intact, and the next new thread appends after them, so reuse drops
 * old spans only where wraparound would. The collector reads free rings
 * exactly and held rings approximately (quiescent-point contract, see
 * the header).
 */
struct SpanRing {
    explicit SpanRing(int log2)
        : slots(static_cast<size_t>(1) << log2),
          mask((static_cast<uint32_t>(1) << log2) - 1)
    {
    }

    /** A thread that wrote into this ring, from span `first_head` on. */
    struct Writer {
        uint64_t first_head = 0;
        uint32_t tid = 0;
        char name[32] = {0};
    };

    std::vector<SpanEvent> slots;
    uint32_t mask;
    std::atomic<uint64_t> head{0};
    uint32_t tid = 0;  ///< the holder's tid, stamped on every new span
    /** Oldest first, guarded by the collector mutex; the last entry is
     *  the holder. */
    std::vector<Writer> writers;
};

/** Every ring, held or free: at most one per live span-recording thread. */
struct SpanCollector {
    std::mutex mu;
    std::vector<std::unique_ptr<SpanRing>> rings;
    std::vector<SpanRing*> free_rings;  ///< rings whose thread has exited
    uint32_t next_tid = 1;
    int ring_log2 = kDefaultRingLog2;
};

SpanCollector& Collector()
{
    static SpanCollector* collector = new SpanCollector;
    return *collector;
}

std::atomic<bool> g_spans_enabled{true};
/** Bumped by ResetSpansForTest so held ring pointers die. */
std::atomic<uint64_t> g_generation{1};

/**
 * The calling thread's ring, taken on its first span (so never while
 * spans are off) and handed back to the free list when the thread exits.
 */
struct ThreadRing {
    SpanRing* ring = nullptr;
    uint64_t generation = 0;
    char label[24] = {0};  ///< from SetCurrentThreadName

    SpanRing* Held() const
    {
        return generation == g_generation.load(std::memory_order_relaxed)
                   ? ring
                   : nullptr;
    }

    ~ThreadRing()
    {
        if (ring == nullptr) return;
        SpanCollector& collector = Collector();
        std::lock_guard<std::mutex> lock(collector.mu);
        if (SpanRing* held = Held()) collector.free_rings.push_back(held);
        ring = nullptr;
    }
};

thread_local ThreadRing t_thread;

void NameWriter(SpanRing::Writer& writer, const char* label)
{
    if (label[0] != '\0')
        std::snprintf(writer.name, sizeof writer.name, "%s-%u", label,
                      writer.tid);
    else
        std::snprintf(writer.name, sizeof writer.name,
                      writer.tid == 1 ? "main" : "thread-%u", writer.tid);
}

SpanRing* RingForThisThread()
{
    if (SpanRing* ring = t_thread.Held()) return ring;
    SpanCollector& collector = Collector();
    std::lock_guard<std::mutex> lock(collector.mu);
    SpanRing* ring = nullptr;
    if (!collector.free_rings.empty()) {
        ring = collector.free_rings.back();
        collector.free_rings.pop_back();
    } else {
        ring = collector.rings
                   .emplace_back(
                       std::make_unique<SpanRing>(collector.ring_log2))
                   .get();
    }
    // Forget earlier writers none of whose spans survive wraparound.
    std::vector<SpanRing::Writer>& writers = ring->writers;
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    const uint64_t oldest = head - std::min<uint64_t>(head, ring->slots.size());
    size_t gone = 0;
    while (gone + 1 < writers.size() && writers[gone + 1].first_head <= oldest)
        ++gone;
    writers.erase(writers.begin(), writers.begin() + gone);

    ring->tid = collector.next_tid++;
    SpanRing::Writer& writer = writers.emplace_back();
    writer.first_head = head;
    writer.tid = ring->tid;
    NameWriter(writer, t_thread.label);
    t_thread.ring = ring;
    t_thread.generation = g_generation.load(std::memory_order_relaxed);
    return ring;
}

void CopyDetail(SpanEvent& event, const char* detail)
{
    if (detail == nullptr) return;
    std::strncpy(event.detail, detail, sizeof event.detail - 1);
    event.detail[sizeof event.detail - 1] = '\0';
}

}  // namespace

void SetSpansEnabled(bool enabled)
{
    g_spans_enabled.store(enabled, std::memory_order_relaxed);
}

bool SpansEnabled()
{
    return g_spans_enabled.load(std::memory_order_relaxed);
}

void SetCurrentThreadName(const char* name)
{
    std::snprintf(t_thread.label, sizeof t_thread.label, "%s", name);
    if (SpanRing* ring = t_thread.Held()) {
        std::lock_guard<std::mutex> lock(Collector().mu);
        NameWriter(ring->writers.back(), t_thread.label);
    }
}

void RecordSpan(const char* category, const char* name, uint64_t start_ns,
                uint64_t dur_ns, const char* detail, const char* arg_name0,
                uint64_t arg0, const char* arg_name1, uint64_t arg1)
{
    SpanRing* ring = RingForThisThread();
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    SpanEvent& event = ring->slots[head & ring->mask];
    event = SpanEvent{};
    event.name = name;
    event.category = category;
    event.start_ns = start_ns;
    event.dur_ns = dur_ns;
    event.tid = ring->tid;
    event.kind = 0;
    CopyDetail(event, detail);
    event.arg_name0 = arg_name0;
    event.arg0 = arg0;
    event.arg_name1 = arg_name1;
    event.arg1 = arg1;
    ring->head.store(head + 1, std::memory_order_release);
    // Once a flight dump path is armed, completions double as flight
    // breadcrumbs: the post-mortem ring shows what the process was doing.
    if (flight::Armed()) flight::Note(name, detail, dur_ns, 0);
}

void RecordInstant(const char* category, const char* name, const char* detail,
                   const char* arg_name0, uint64_t arg0)
{
    if (!SpansEnabled()) return;
    SpanRing* ring = RingForThisThread();
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    SpanEvent& event = ring->slots[head & ring->mask];
    event = SpanEvent{};
    event.name = name;
    event.category = category;
    event.start_ns = MonotonicNowNs();
    event.tid = ring->tid;
    event.kind = 1;
    CopyDetail(event, detail);
    event.arg_name0 = arg_name0;
    event.arg0 = arg0;
    ring->head.store(head + 1, std::memory_order_release);
    if (flight::Armed()) flight::Note(name, detail, arg0, 0);
}

SpanDump CollectSpans()
{
    SpanDump dump;
    SpanCollector& collector = Collector();
    std::lock_guard<std::mutex> lock(collector.mu);
    for (const auto& ring : collector.rings) {
        for (const SpanRing::Writer& writer : ring->writers)
            dump.threads.emplace_back(writer.tid, writer.name);
        const uint64_t head = ring->head.load(std::memory_order_acquire);
        const uint64_t capacity = ring->slots.size();
        const uint64_t count = std::min(head, capacity);
        dump.recorded += head;
        dump.dropped += head - count;
        for (uint64_t i = head - count; i < head; ++i)
            dump.events.push_back(ring->slots[i & ring->mask]);
    }
    std::sort(dump.events.begin(), dump.events.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                  return a.start_ns < b.start_ns;
              });
    Registry::Global().GetCounter("obs.spans.recorded").Set(dump.recorded);
    Registry::Global().GetCounter("obs.spans.dropped").Set(dump.dropped);
    return dump;
}

void SetSpanRingLog2ForTest(int log2_capacity)
{
    SpanCollector& collector = Collector();
    std::lock_guard<std::mutex> lock(collector.mu);
    collector.ring_log2 = log2_capacity;
}

size_t SpanRingCountForTest()
{
    SpanCollector& collector = Collector();
    std::lock_guard<std::mutex> lock(collector.mu);
    return collector.rings.size();
}

void ResetSpansForTest()
{
    SpanCollector& collector = Collector();
    std::lock_guard<std::mutex> lock(collector.mu);
    collector.rings.clear();
    collector.free_rings.clear();
    collector.next_tid = 1;
    collector.ring_log2 = kDefaultRingLog2;
    g_generation.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- profiler

namespace {
uint64_t (*g_profiler_clock)() = nullptr;
}  // namespace

PhaseProfiler::PhaseProfiler(int sample_shift)
    : shift_(sample_shift),
      mask_((static_cast<uint64_t>(1) << sample_shift) - 1)
{
}

uint64_t PhaseProfiler::Now()
{
    return g_profiler_clock != nullptr ? g_profiler_clock()
                                       : MonotonicNowNs();
}

void PhaseProfiler::SetClockForTest(uint64_t (*now_ns)())
{
    g_profiler_clock = now_ns;
}

void PhaseProfiler::BeginRun()
{
    // Calibrate the cost of one clock read so Accumulate can excise the
    // profiler's own overhead from sampled windows (an instrumented
    // window pays a dozen-odd reads the unsampled ones do not; scaling
    // by N would multiply that inflation into a >100% "coverage"). The
    // minimum back-to-back delta is robust to preemption. Deterministic
    // test clocks skip calibration: their fixed per-call advance is the
    // quantity under test, not overhead.
    clock_cost_ns_ = 0;
    if (g_profiler_clock == nullptr) {
        uint64_t best = UINT64_MAX;
        uint64_t prev = Now();
        for (int i = 0; i < 256; ++i) {
            const uint64_t t = Now();
            if (t - prev < best) best = t - prev;
            prev = t;
        }
        if (best != UINT64_MAX) clock_cost_ns_ = best;
    }
    run_begin_ns_ = Now();
    run_end_ns_ = 0;
}

void PhaseProfiler::EndRun()
{
    run_end_ns_ = Now();
}

std::vector<PhaseProfiler::Row> PhaseProfiler::Breakdown() const
{
    // Sampled phases are apportioned gprof-style: the windows yield
    // *proportions*, which are anchored to the measured wall time left
    // after the exactly-timed sections. Scaling the raw window times by
    // N instead would inflate the estimate with the instrumented
    // windows' own clock-read overhead (measured at 1.6-2.6x here).
    uint64_t sampled_total = 0;
    uint64_t exact_total = 0;
    for (int i = 0; i < kPhaseCount; ++i) {
        sampled_total += sampled_ns_[i];
        exact_total += exact_ns_[i];
    }
    const uint64_t run = run_ns();
    const uint64_t anchor_ns = run > exact_total ? run - exact_total : 0;

    std::vector<Row> rows;
    for (int i = 0; i < kPhaseCount; ++i) {
        const Phase phase = static_cast<Phase>(i);
        const bool is_sampled = i < static_cast<int>(Phase::kDrain);
        uint64_t ns = exact_ns_[i];
        if (sampled_ns_[i] != 0) {
            if (run != 0 && sampled_total != 0) {
                ns += static_cast<uint64_t>(
                    static_cast<double>(sampled_ns_[i]) /
                    static_cast<double>(sampled_total) *
                    static_cast<double>(anchor_ns));
            } else {
                // No BeginRun anchor: fall back to raw xN extrapolation.
                ns += sampled_ns_[i] << shift_;
            }
        }
        rows.push_back(Row{phase, PhaseName(phase), ns, is_sampled});
    }
    return rows;
}

uint64_t PhaseProfiler::run_ns() const
{
    if (run_begin_ns_ == 0) return 0;
    const uint64_t end = run_end_ns_ != 0 ? run_end_ns_ : Now();
    return end > run_begin_ns_ ? end - run_begin_ns_ : 0;
}

double PhaseProfiler::CoverageFraction() const
{
    const uint64_t total = run_ns();
    if (total == 0) return 0.0;
    uint64_t attributed = 0;
    for (const Row& row : Breakdown())
        attributed += row.ns;
    return static_cast<double>(attributed) / static_cast<double>(total);
}

#endif  // ATUM_TRACING_ENABLED

// ------------------------------------------------------------------ export
// Compiled in both modes: an OFF build exports a valid empty document
// with otherData.tracing == "off".

std::string SpansToChromeJson(const SpanDump& dump,
                              const std::string& process_name)
{
    uint64_t anchor_ns = 0;
    for (const SpanEvent& event : dump.events) {
        if (anchor_ns == 0 || event.start_ns < anchor_ns)
            anchor_ns = event.start_ns;
    }

    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("displayTimeUnit", "ms");
    w.Key("otherData");
    w.BeginObject();
    w.KeyValue("tool", process_name);
    w.KeyValue("tracing", ATUM_TRACING_ENABLED ? "on" : "off");
    w.KeyValue("mono_anchor_ns", anchor_ns);
    w.KeyValue("wall_anchor_ms", WallClockMs());
    w.KeyValue("recorded", dump.recorded);
    w.KeyValue("dropped", dump.dropped);
    w.EndObject();
    w.Key("traceEvents");
    w.BeginArray();
    w.BeginObject();
    w.KeyValue("ph", "M");
    w.KeyValue("name", "process_name");
    w.KeyValue("pid", 1);
    w.KeyValue("tid", 0);
    w.Key("args");
    w.BeginObject();
    w.KeyValue("name", process_name);
    w.EndObject();
    w.EndObject();
    for (const auto& [tid, name] : dump.threads) {
        w.BeginObject();
        w.KeyValue("ph", "M");
        w.KeyValue("name", "thread_name");
        w.KeyValue("pid", 1);
        w.KeyValue("tid", tid);
        w.Key("args");
        w.BeginObject();
        w.KeyValue("name", name);
        w.EndObject();
        w.EndObject();
    }
    for (const SpanEvent& event : dump.events) {
        w.BeginObject();
        w.KeyValue("ph", event.kind == 0 ? "X" : "i");
        if (event.kind != 0) w.KeyValue("s", "t");
        w.KeyValue("name", event.name != nullptr ? event.name : "?");
        w.KeyValue("cat",
                   event.category != nullptr ? event.category : "atum");
        w.KeyValue("pid", 1);
        w.KeyValue("tid", event.tid);
        w.KeyValue("ts",
                   static_cast<double>(event.start_ns - anchor_ns) / 1e3);
        if (event.kind == 0)
            w.KeyValue("dur", static_cast<double>(event.dur_ns) / 1e3);
        const bool has_args = event.detail[0] != '\0' ||
                              event.arg_name0 != nullptr ||
                              event.arg_name1 != nullptr;
        if (has_args) {
            w.Key("args");
            w.BeginObject();
            if (event.detail[0] != '\0')
                w.KeyValue("detail", std::string(event.detail));
            if (event.arg_name0 != nullptr)
                w.KeyValue(event.arg_name0, event.arg0);
            if (event.arg_name1 != nullptr)
                w.KeyValue(event.arg_name1, event.arg1);
            w.EndObject();
        }
        w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::string out = w.TakeStr();
    out.push_back('\n');
    return out;
}

util::Status WriteSpansFile(const std::string& path,
                            const std::string& process_name, io::Vfs& vfs)
{
    const std::string json = SpansToChromeJson(CollectSpans(), process_name);
    auto file = vfs.Create(path);
    if (!file.ok()) return file.status();
    if (util::Status s = (*file)->Write(json.data(), json.size()); !s.ok())
        return s;
    if (util::Status s = (*file)->Sync(); !s.ok()) return s;
    return (*file)->Close();
}

}  // namespace atum::obs
