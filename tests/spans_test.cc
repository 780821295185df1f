// Unit tests for the observability tracing layer (obs/spans.h,
// obs/flight.h): span ring wraparound, multi-thread collection
// exactness at a quiescent point (run under TSan in CI), ring reuse
// across short-lived pool threads, the Chrome trace-event export
// schema, deterministic phase-profiler attribution under an injected
// clock, and the flight recorder's dump format. The
// suite also compiles (and passes) with -DATUM_TRACING=OFF, where it
// verifies the compiled-out contract instead: no events, valid export
// with tracing:"off", and a still-armed flight recorder.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight.h"
#include "obs/spans.h"
#include "replay/sweep.h"
#include "trace/record.h"
#include "util/json.h"

namespace atum::obs {
namespace {

/** Parses `text` or fails the test. */
util::JsonValue
ParseOrDie(const std::string& text)
{
    util::StatusOr<util::JsonValue> parsed = util::JsonValue::Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return parsed.ok() ? *parsed : util::JsonValue();
}

/** Deterministic profiler clock: every read advances 100 ns. */
uint64_t g_fake_ns = 0;
uint64_t
FakeClock()
{
    return g_fake_ns += 100;
}

#if ATUM_TRACING_ENABLED

class SpansTest : public ::testing::Test
{
  protected:
    void SetUp() override { ResetSpansForTest(); }
    void TearDown() override { ResetSpansForTest(); }
};

TEST_F(SpansTest, RecordAndCollect)
{
    RecordSpan("cat", "alpha", 1000, 500, "label", "bytes", 7, nullptr, 0);
    RecordInstant("cat", "mark");
    const SpanDump dump = CollectSpans();
    ASSERT_EQ(dump.events.size(), 2u);
    EXPECT_EQ(dump.recorded, 2u);
    EXPECT_EQ(dump.dropped, 0u);
    EXPECT_STREQ(dump.events[0].name, "alpha");
    EXPECT_EQ(dump.events[0].start_ns, 1000u);
    EXPECT_EQ(dump.events[0].dur_ns, 500u);
    EXPECT_STREQ(dump.events[0].detail, "label");
    EXPECT_EQ(dump.events[0].arg0, 7u);
}

TEST_F(SpansTest, RingWrapsAndCountsDrops)
{
    SetSpanRingLog2ForTest(4);  // 16 slots
    for (uint64_t i = 0; i < 100; ++i)
        RecordSpan("cat", "spin", i + 1, 1, nullptr, nullptr, 0, nullptr,
                   0);
    const SpanDump dump = CollectSpans();
    EXPECT_EQ(dump.events.size(), 16u);   // overwrite-oldest
    EXPECT_EQ(dump.recorded, 100u);
    EXPECT_EQ(dump.dropped, 84u);
    // The survivors are the newest 16, still sorted by start time.
    EXPECT_EQ(dump.events.front().start_ns, 85u);
    EXPECT_EQ(dump.events.back().start_ns, 100u);
}

TEST_F(SpansTest, ScopedSpanRecordsOnceOnCloseOrDestruction)
{
    {
        ATUM_SPAN_NAMED(span, "cat", "scoped");
        span.set_detail("via-close");
        span.Close();
        span.Close();  // idempotent
    }  // destructor after Close must not double-record
    EXPECT_EQ(CollectSpans().events.size(), 1u);
}

TEST_F(SpansTest, DisabledRecordsNothing)
{
    // The kill switch guards the public entry points: the ScopedSpan
    // constructor (which skips the clock read entirely) and
    // RecordInstant. Raw RecordSpan is ~ScopedSpan's internal path.
    SetSpansEnabled(false);
    {
        ATUM_SPAN("cat", "scoped");
        ATUM_SPAN_NAMED(named, "cat", "named");
        named.set_detail("ignored while disabled");
    }
    RecordInstant("cat", "mark");
    SetSpansEnabled(true);
    const SpanDump dump = CollectSpans();
    EXPECT_TRUE(dump.events.empty());
    EXPECT_EQ(dump.recorded, 0u);
}

TEST_F(SpansTest, MultiThreadCollectionIsExactAfterJoin)
{
    // The quiescent-point contract: after every producer has joined,
    // CollectSpans must see each thread's events exactly once. TSan
    // (the CI tsan lane runs this suite) verifies the release/acquire
    // pairing on the ring heads.
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            SetCurrentThreadName("producer");
            for (uint64_t i = 0; i < kPerThread; ++i)
                RecordSpan("cat", "work",
                           static_cast<uint64_t>(t) * kPerThread + i + 1,
                           1, nullptr, nullptr, 0, nullptr, 0);
        });
    }
    for (auto& t : threads)
        t.join();
    const SpanDump dump = CollectSpans();
    EXPECT_EQ(dump.events.size(), kThreads * kPerThread);
    EXPECT_EQ(dump.recorded, kThreads * kPerThread);
    EXPECT_EQ(dump.dropped, 0u);
    // Each producer ring registered under its thread name.
    int producers = 0;
    for (const auto& [tid, name] : dump.threads)
        if (name.rfind("producer", 0) == 0)
            ++producers;
    EXPECT_EQ(producers, kThreads);
}

TEST_F(SpansTest, PoolThreadsReuseRingsOfExitedThreads)
{
    // Every SweepRunner::Run starts a fresh pool whose workers record
    // sweep.config spans. A worker's ring must go back to the free list
    // when it exits, so repeated sweeps hold no more rings than threads
    // ever live at once (the workers plus main), and the export still
    // names the thread of every surviving span.
    std::vector<trace::Record> records(1000);
    for (size_t i = 0; i < records.size(); ++i) {
        records[i].type = trace::RecordType::kRead;
        records[i].addr = static_cast<uint32_t>(i * 16);
        records[i].flags = trace::MakeFlags(false, 4);
    }
    std::vector<replay::SweepConfig> configs;
    for (uint32_t kb : {1u, 2u, 4u, 8u})
        configs.push_back(replay::MakeCacheJob(
            {.size_bytes = kb << 10, .block_bytes = 16, .assoc = 1}));
    constexpr unsigned kJobs = 4;
    constexpr int kRuns = 20;
    for (int run = 0; run < kRuns; ++run) {
        replay::SweepRunner(kJobs).Run(records, configs);
        EXPECT_LE(SpanRingCountForTest(), kJobs + 1) << "run " << run;
    }
    const SpanDump dump = CollectSpans();
    EXPECT_EQ(dump.dropped, 0u);
    EXPECT_EQ(dump.events.size(), kRuns * (configs.size() + 1));
    for (const SpanEvent& event : dump.events) {
        bool named = false;
        for (const auto& [tid, name] : dump.threads)
            named = named || tid == event.tid;
        EXPECT_TRUE(named) << event.name << " tid " << event.tid;
    }

    // While spans are off, naming a pool worker takes no ring at all.
    ResetSpansForTest();
    SetSpansEnabled(false);
    for (int run = 0; run < kRuns; ++run)
        replay::SweepRunner(kJobs).Run(records, configs);
    SetSpansEnabled(true);
    EXPECT_EQ(SpanRingCountForTest(), 0u);
}

TEST_F(SpansTest, ChromeJsonGoldenSchema)
{
    RecordSpan("tracer", "drain", 2000, 1500, "ep1", "records", 42,
               nullptr, 0);
    RecordSpan("supervisor", "slice", 1000, 4000, nullptr, "executed",
               4096, nullptr, 0);
    RecordInstant("serve", "serve.submit", "hash", "id", 3);
    const std::string json =
        SpansToChromeJson(CollectSpans(), "spans-test");

    const util::JsonValue doc = ParseOrDie(json);
    EXPECT_EQ(doc.Get("displayTimeUnit").AsString(), "ms");
    const util::JsonValue& other = doc.Get("otherData");
    EXPECT_EQ(other.Get("tool").AsString(), "spans-test");
    EXPECT_EQ(other.Get("tracing").AsString(), "on");
    EXPECT_EQ(other.Get("recorded").AsU64(), 3u);
    EXPECT_EQ(other.Get("dropped").AsU64(), 0u);
    EXPECT_TRUE(other.Has("mono_anchor_ns"));
    EXPECT_TRUE(other.Has("wall_anchor_ms"));

    const auto& events = doc.Get("traceEvents").AsArray();
    bool saw_process_meta = false;
    bool saw_thread_meta = false;
    const util::JsonValue* drain = nullptr;
    const util::JsonValue* slice = nullptr;
    const util::JsonValue* submit = nullptr;
    for (const util::JsonValue& e : events) {
        const std::string ph = e.Get("ph").AsString();
        if (ph == "M") {
            if (e.Get("name").AsString() == "process_name")
                saw_process_meta = true;
            if (e.Get("name").AsString() == "thread_name")
                saw_thread_meta = true;
            continue;
        }
        if (e.Get("name").AsString() == "drain")
            drain = &e;
        if (e.Get("name").AsString() == "slice")
            slice = &e;
        if (e.Get("name").AsString() == "serve.submit")
            submit = &e;
    }
    EXPECT_TRUE(saw_process_meta);
    EXPECT_TRUE(saw_thread_meta);

    // Complete events: ts is microseconds relative to the earliest
    // span (the 1000 ns slice), so the 2000 ns drain sits at 1.0 us.
    ASSERT_NE(drain, nullptr);
    EXPECT_EQ(drain->Get("ph").AsString(), "X");
    EXPECT_EQ(drain->Get("cat").AsString(), "tracer");
    EXPECT_DOUBLE_EQ(drain->Get("ts").AsDouble(), 1.0);
    EXPECT_DOUBLE_EQ(drain->Get("dur").AsDouble(), 1.5);
    EXPECT_EQ(drain->Get("args").Get("detail").AsString(), "ep1");
    EXPECT_EQ(drain->Get("args").Get("records").AsU64(), 42u);

    ASSERT_NE(slice, nullptr);
    EXPECT_DOUBLE_EQ(slice->Get("ts").AsDouble(), 0.0);
    EXPECT_EQ(slice->Get("args").Get("executed").AsU64(), 4096u);

    // Instants carry thread scope and no duration.
    ASSERT_NE(submit, nullptr);
    EXPECT_EQ(submit->Get("ph").AsString(), "i");
    EXPECT_EQ(submit->Get("s").AsString(), "t");
    EXPECT_FALSE(submit->Has("dur"));
}

TEST_F(SpansTest, PhaseProfilerDeterministicUnderInjectedClock)
{
    g_fake_ns = 0;
    PhaseProfiler::SetClockForTest(&FakeClock);
    PhaseProfiler profiler(/*sample_shift=*/0);  // sample every window

    profiler.BeginRun();                       // t=100
    ASSERT_TRUE(profiler.BeginSample());       // t=200, window opens
    EXPECT_TRUE(profiler.sampling());
    profiler.Enter(Phase::kTranslate);         // t=300: dispatch +100
    profiler.Exit();                           // t=400: translate +100
    profiler.AddExact(Phase::kDrain, 50);      // exact, no clock read
    profiler.SkipTime(50);                     // excise from the window
    profiler.EndSample();                      // t=500: dispatch +50
    profiler.EndSample();                      // idempotent: no effect
    profiler.EndRun();                         // t=600: run_ns = 500

    EXPECT_EQ(profiler.samples(), 1u);
    EXPECT_EQ(profiler.run_ns(), 500u);

    // Sampled shares (dispatch 150, translate 100 of 250) apportion the
    // non-exact wall time (500 - 50 = 450) gprof-style: dispatch 270,
    // translate 180, drain exactly 50. ±1 absorbs the double rounding.
    const std::vector<PhaseProfiler::Row> rows = profiler.Breakdown();
    ASSERT_EQ(rows.size(), static_cast<size_t>(kPhaseCount));
    EXPECT_NEAR(rows[static_cast<int>(Phase::kDispatch)].ns, 270.0, 1.0);
    EXPECT_NEAR(rows[static_cast<int>(Phase::kTranslate)].ns, 180.0, 1.0);
    EXPECT_EQ(rows[static_cast<int>(Phase::kMemory)].ns, 0u);
    EXPECT_EQ(rows[static_cast<int>(Phase::kDrain)].ns, 50u);
    EXPECT_TRUE(rows[static_cast<int>(Phase::kDispatch)].sampled);
    EXPECT_FALSE(rows[static_cast<int>(Phase::kDrain)].sampled);
    EXPECT_NEAR(profiler.CoverageFraction(), 1.0, 0.01);

    PhaseProfiler::SetClockForTest(nullptr);
}

TEST_F(SpansTest, PhaseProfilerUnsampledWindowsAreCheap)
{
    g_fake_ns = 0;
    PhaseProfiler::SetClockForTest(&FakeClock);
    PhaseProfiler profiler(/*sample_shift=*/2);  // 1 in 4
    profiler.BeginRun();
    int sampled = 0;
    for (int i = 0; i < 8; ++i) {
        if (profiler.BeginSample())
            ++sampled;
        else
            EXPECT_FALSE(profiler.sampling());
        profiler.EndSample();
    }
    EXPECT_EQ(sampled, 2);
    PhaseProfiler::SetClockForTest(nullptr);
}

#else  // !ATUM_TRACING_ENABLED

TEST(SpansCompiledOut, MacrosCompileAndRecordNothing)
{
    // The call-site surface is identical in OFF builds; everything
    // folds to empty inline objects and the collector sees nothing.
    {
        ATUM_SPAN("cat", "scoped");
        ATUM_SPAN_NAMED(named, "cat", "named");
        named.set_detail("ignored");
        named.set_arg("n", 1);
        named.Close();
    }
    RecordSpan("cat", "alpha", 1000, 500, nullptr, nullptr, 0, nullptr, 0);
    RecordInstant("cat", "mark");
    const SpanDump dump = CollectSpans();
    EXPECT_TRUE(dump.events.empty());
    EXPECT_EQ(dump.recorded, 0u);

    PhaseProfiler profiler;
    profiler.BeginRun();
    EXPECT_FALSE(profiler.BeginSample());
    EXPECT_FALSE(profiler.sampling());
    profiler.EndRun();
    EXPECT_EQ(profiler.run_ns(), 0u);
    EXPECT_TRUE(profiler.Breakdown().empty());
}

TEST(SpansCompiledOut, ExportIsValidAndMarkedOff)
{
    const std::string json =
        SpansToChromeJson(CollectSpans(), "spans-test");
    const util::JsonValue doc = ParseOrDie(json);
    EXPECT_EQ(doc.Get("otherData").Get("tracing").AsString(), "off");
    EXPECT_EQ(doc.Get("otherData").Get("recorded").AsU64(), 0u);
    // The process_name metadata event is always present; no span ("X")
    // or instant ("i") events can exist in an OFF build.
    for (const util::JsonValue& e : doc.Get("traceEvents").AsArray())
        EXPECT_EQ(e.Get("ph").AsString(), "M");
}

#endif  // ATUM_TRACING_ENABLED

// -- flight recorder (always compiled, both build modes) -----------------

class FlightTest : public ::testing::Test
{
  protected:
    void SetUp() override { flight::ResetForTest(); }
    void TearDown() override { flight::ResetForTest(); }

    std::string DumpPath() const
    {
        return ::testing::TempDir() + "spans_test.flight.json";
    }
};

TEST_F(FlightTest, DisarmedUntilPathSet)
{
    flight::Note("early", "before-arming", 1, 2);
    EXPECT_FALSE(flight::Armed());
    EXPECT_FALSE(flight::DumpNow("test"));  // no-op while disarmed
    flight::SetDumpPath(DumpPath().c_str());
    EXPECT_TRUE(flight::Armed());
}

TEST_F(FlightTest, DumpSchemaAndLastEventIsTheFailurePoint)
{
    flight::SetDumpPath(DumpPath().c_str());
    flight::Note("tracer.drain", "episode-1", 100, 0);
    flight::Note("supervisor.watchdog", "wedged \"here\"", 12345, 42);
    ASSERT_TRUE(flight::DumpNow("watchdog"));

    std::string text;
    {
        std::FILE* f = std::fopen(DumpPath().c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    const util::JsonValue doc = ParseOrDie(text);
    EXPECT_EQ(doc.Get("schema").AsString(), "atum-flight-v1");
    EXPECT_EQ(doc.Get("reason").AsString(), "watchdog");
    EXPECT_TRUE(doc.Has("wall_ms"));
    EXPECT_TRUE(doc.Has("mono_us"));
    EXPECT_TRUE(doc.Has("pid"));
    EXPECT_EQ(doc.Get("dropped").AsU64(), 0u);

    const auto& events = doc.Get("events").AsArray();
    ASSERT_EQ(events.size(), 2u);
    // Oldest -> newest: the last event names the failure point, which
    // is the contract test_tools.sh asserts after an induced wedge.
    const util::JsonValue& last = events.back();
    EXPECT_EQ(last.Get("name").AsString(), "supervisor.watchdog");
    EXPECT_EQ(last.Get("detail").AsString(), "wedged \"here\"");
    EXPECT_EQ(last.Get("a").AsU64(), 12345u);
    EXPECT_EQ(last.Get("b").AsU64(), 42u);
}

TEST_F(FlightTest, RingWrapsOldestOutAndCountsDrops)
{
    flight::SetDumpPath(DumpPath().c_str());
    for (int i = 0; i < 300; ++i)
        flight::Note("spin", nullptr, static_cast<uint64_t>(i), 0);
    ASSERT_TRUE(flight::DumpNow("wrap"));

    std::string text;
    {
        std::FILE* f = std::fopen(DumpPath().c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[8192];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    const util::JsonValue doc = ParseOrDie(text);
    EXPECT_EQ(doc.Get("dropped").AsU64(), 300u - 256u);
    const auto& events = doc.Get("events").AsArray();
    ASSERT_EQ(events.size(), 256u);
    EXPECT_EQ(events.front().Get("a").AsU64(), 44u);
    EXPECT_EQ(events.back().Get("a").AsU64(), 299u);
}

}  // namespace
}  // namespace atum::obs
