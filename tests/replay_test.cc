// Unit tests for the parallel replay engine: thread pool semantics and
// the determinism contract (N threads == 1 thread == the legacy serial
// loop, bit for bit).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/compare.h"
#include "analysis/parallel_profiles.h"
#include "analysis/stack_distance.h"
#include "replay/sweep.h"
#include "replay/thread_pool.h"
#include "trace/record.h"
#include "util/rng.h"

namespace atum::replay {
namespace {

using trace::MakeCtxSwitch;
using trace::MakeFlags;
using trace::Record;
using trace::RecordType;

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately)
{
    ThreadPool pool(2);
    pool.Wait();  // must not hang
    SUCCEED();
}

TEST(ThreadPool, SingleThreadStillDrainsQueue)
{
    ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i)
        pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, TaskExceptionDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.Submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 20; ++i)
        pool.Submit([&ran] { ++ran; });
    EXPECT_THROW(pool.Wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 20);  // later tasks still ran
    // The pool stays usable after an exception.
    pool.Submit([&ran] { ++ran; });
    pool.Wait();
    EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPool, CancelledTokenAbandonsQueuedWork)
{
    // One worker pinned on a gate guarantees the rest of the queue is
    // still pending when we cancel: those tasks must never run.
    ThreadPool pool(1);
    CancellationToken token;
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};
    pool.Submit([&gate] {
        while (!gate.load())
            std::this_thread::yield();
    });
    for (int i = 0; i < 10; ++i)
        pool.Submit([&ran] { ++ran; }, &token);
    token.Cancel();
    gate.store(true);
    pool.Wait();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(pool.abandoned(), 10u);
    // Submitting against an already-cancelled token drops immediately.
    pool.Submit([&ran] { ++ran; }, &token);
    pool.Wait();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(pool.abandoned(), 11u);
}

TEST(ThreadPool, AbandonPendingDropsOnlyUnstartedWork)
{
    ThreadPool pool(1);
    std::atomic<bool> gate{false};
    std::atomic<int> started{0};
    std::atomic<int> ran{0};
    pool.Submit([&] {
        ++started;
        while (!gate.load())
            std::this_thread::yield();
        ++ran;
    });
    while (started.load() == 0)
        std::this_thread::yield();
    for (int i = 0; i < 7; ++i)
        pool.Submit([&ran] { ++ran; });
    EXPECT_EQ(pool.AbandonPending(), 7u);
    gate.store(true);
    pool.Wait();
    // The in-flight task finished; the queued backlog never ran.
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(pool.abandoned(), 7u);
    // The pool is still usable after a drain.
    pool.Submit([&ran] { ++ran; });
    pool.Wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, CancelRacesSubmitWithoutLossOrDoubleRun)
{
    // The stop/enqueue race the serve daemon hits on SIGTERM: one thread
    // floods the queue while another cancels mid-stream. Under TSan this
    // exercises the token read against concurrent Submit/dequeue; the
    // invariant is every task either ran once or was counted abandoned.
    for (int round = 0; round < 8; ++round) {
        ThreadPool pool(4);
        CancellationToken token;
        std::atomic<int> ran{0};
        constexpr int kTasks = 400;
        std::thread submitter([&] {
            for (int i = 0; i < kTasks; ++i)
                pool.Submit([&ran] { ++ran; }, &token);
        });
        std::thread canceller([&] { token.Cancel(); });
        submitter.join();
        canceller.join();
        pool.Wait();
        EXPECT_EQ(static_cast<std::size_t>(ran.load()) + pool.abandoned(),
                  static_cast<std::size_t>(kTasks));
    }
}

TEST(ThreadPool, AbandonPendingRacesSubmit)
{
    // AbandonPending from one thread against a flood of Submits from
    // another: conservation must hold and Wait must not hang.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    constexpr int kTasks = 300;
    std::size_t dropped = 0;
    std::thread submitter([&] {
        for (int i = 0; i < kTasks; ++i)
            pool.Submit([&ran] { ++ran; });
    });
    std::thread drainer([&] { dropped = pool.AbandonPending(); });
    submitter.join();
    drainer.join();
    pool.Wait();
    EXPECT_EQ(pool.abandoned(), dropped);
    EXPECT_EQ(static_cast<std::size_t>(ran.load()) + dropped,
              static_cast<std::size_t>(kTasks));
}

TEST(ThreadPool, WaitCanBeCalledRepeatedly)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.Submit([&count] { ++count; });
    pool.Wait();
    pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 2);
}

/** A multiprogrammed-looking synthetic trace: three processes with
 *  distinct looping footprints, kernel interludes, context switches. */
std::vector<Record>
SyntheticTrace(int refs)
{
    Rng rng(0xa7a7);
    std::vector<Record> records;
    uint16_t pid = 1;
    records.push_back(MakeCtxSwitch(pid, 0));
    for (int i = 0; i < refs; ++i) {
        if (i % 997 == 0 && i > 0) {
            pid = static_cast<uint16_t>(1 + (pid % 3));
            records.push_back(MakeCtxSwitch(pid, 0));
        }
        Record r;
        const uint32_t roll = rng.Below(10);
        if (roll < 5) {
            r.type = RecordType::kIFetch;
            r.addr = 0x1000 * pid + (i % 600) * 4;
        } else if (roll < 8) {
            r.type = RecordType::kRead;
            r.addr = 0x40000 * pid + rng.Below(1u << 14);
        } else {
            r.type = RecordType::kWrite;
            r.addr = 0x40000 * pid + rng.Below(1u << 12);
        }
        const bool kernel = roll == 9;
        if (kernel)
            r.addr |= 0x80000000u;
        r.flags = MakeFlags(kernel, 4);
        records.push_back(r);
    }
    return records;
}

std::vector<SweepConfig>
MixedConfigs()
{
    std::vector<SweepConfig> jobs;
    cache::DriverOptions flush_opts;
    flush_opts.flush_on_switch = true;
    for (uint32_t kib : {1u, 4u, 16u, 64u}) {
        cache::CacheConfig config{.size_bytes = kib << 10,
                                  .block_bytes = 16, .assoc = 2,
                                  .pid_tags = true};
        jobs.push_back(MakeCacheJob(config, {}));
        config.pid_tags = false;
        jobs.push_back(MakeCacheJob(config, flush_opts));
    }
    // Random replacement exercises the per-cache deterministic RNG.
    cache::CacheConfig random_cfg{.size_bytes = 8u << 10, .block_bytes = 16,
                                  .assoc = 4,
                                  .replacement = cache::Replacement::kRandom};
    jobs.push_back(MakeCacheJob(random_cfg, {}));
    cache::HierarchyConfig hier;
    hier.flush_on_switch = true;
    jobs.push_back(MakeHierarchyJob(hier));
    jobs.push_back(MakeTlbJob({.entries = 64}));
    return jobs;
}

void
ExpectIdentical(const SweepResult& a, const SweepResult& b, size_t i)
{
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.label, b.label) << i;
    EXPECT_EQ(a.status.code(), b.status.code()) << i;
    EXPECT_EQ(a.cache_stats, b.cache_stats) << i;
    EXPECT_EQ(a.fed, b.fed) << i;
    EXPECT_EQ(a.filtered, b.filtered) << i;
    EXPECT_EQ(a.l1i_stats, b.l1i_stats) << i;
    EXPECT_EQ(a.l1d_stats, b.l1d_stats) << i;
    EXPECT_EQ(a.l2_stats, b.l2_stats) << i;
    EXPECT_EQ(a.hierarchy_accesses, b.hierarchy_accesses) << i;
    EXPECT_EQ(a.memory_accesses, b.memory_accesses) << i;
    EXPECT_EQ(a.tlb_stats.accesses, b.tlb_stats.accesses) << i;
    EXPECT_EQ(a.tlb_stats.misses, b.tlb_stats.misses) << i;
    EXPECT_EQ(a.tlb_stats.flushes, b.tlb_stats.flushes) << i;
    // Miss rates are derived from integer counts: bit-identical, not
    // merely close.
    EXPECT_EQ(a.MissRate(), b.MissRate()) << i;
    EXPECT_EQ(a.global_miss_rate, b.global_miss_rate) << i;
    EXPECT_EQ(a.amat, b.amat) << i;
}

TEST(SweepRunner, DeterministicAcrossThreadCounts)
{
    const std::vector<Record> records = SyntheticTrace(20000);
    const std::vector<SweepConfig> jobs = MixedConfigs();
    ASSERT_GE(jobs.size(), 8u);

    // Legacy serial loop is the reference.
    std::vector<SweepResult> serial;
    for (const SweepConfig& job : jobs)
        serial.push_back(ReplayOne(records, job));

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const auto results = SweepRunner(threads).Run(records, jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i)
            ExpectIdentical(results[i], serial[i], i);
    }
}

TEST(SweepRunner, MatchesLegacyAnalysisSweep)
{
    // The SweepRunner must agree with analysis::SimulateCache, the serial
    // per-cache helper the examples use, row by row.
    const std::vector<Record> records = SyntheticTrace(10000);
    cache::CacheConfig base{.block_bytes = 16, .assoc = 1};
    const std::vector<uint32_t> sizes = {1024, 4096, 16384, 65536};
    std::vector<SweepConfig> jobs;
    for (uint32_t size : sizes) {
        base.size_bytes = size;
        jobs.push_back(MakeCacheJob(base, {}));
    }
    const auto results = SweepRunner(4).Run(records, jobs);
    for (size_t i = 0; i < sizes.size(); ++i) {
        const cache::CacheStats legacy =
            analysis::SimulateCache(records, jobs[i].cache, {});
        EXPECT_EQ(results[i].cache_stats, legacy) << i;
        EXPECT_EQ(results[i].MissRate(), legacy.MissRate()) << i;
    }
}

/**
 * A randomised trace with everything the record filter sees: context
 * switches among four processes, kernel and user references, ifetches,
 * reads, writes, PTE references and non-memory markers. Each reference
 * falls in a hot, warm or wide region, so stack depths from 0 to past 16
 * all occur.
 */
std::vector<Record>
DifferentialTrace(uint64_t seed, int refs)
{
    Rng rng(seed);
    std::vector<Record> records;
    uint16_t pid = 1;
    records.push_back(MakeCtxSwitch(pid, 0));
    for (int i = 0; i < refs; ++i) {
        const uint32_t roll = rng.Below(100);
        if (roll < 2) {
            pid = static_cast<uint16_t>(1 + rng.Below(4));
            records.push_back(MakeCtxSwitch(pid, 0));
            continue;
        }
        if (roll < 4) {
            records.push_back(trace::MakeTlbMiss(rng.Next32(), false));
            continue;
        }
        Record r;
        const bool kernel = rng.Below(4) == 0;
        static constexpr uint32_t kSpans[] = {256, 4096, 1u << 16};
        // Processes 1 and 3 share one user region, 2 and 4 another, so
        // only a pid tag tells their blocks apart.
        uint32_t addr = (kernel ? 0x80000000u : 0x10000u * (pid & 1)) +
                        rng.Below(kSpans[rng.Below(3)]);
        if (roll < 7) {
            r.type = RecordType::kPte;
            addr = 0x200000u + rng.Below(1024) * 4;
        } else if (roll < 40) {
            r.type = RecordType::kIFetch;
        } else if (roll < 75) {
            r.type = RecordType::kRead;
        } else {
            r.type = RecordType::kWrite;
        }
        r.addr = addr;
        r.flags = MakeFlags(kernel, 4);
        records.push_back(r);
    }
    return records;
}

/**
 * Stack-eligible rows in groups of several associativities per set count,
 * across block sizes, tags, write policies and record filters, with every
 * kind of row the stack replay must leave to ReplayOne mixed in.
 */
std::vector<SweepConfig>
DifferentialConfigs()
{
    struct Variant {
        cache::DriverOptions driver;
        bool pid_tags;
        bool write_back;
    };
    std::vector<Variant> variants(6, {{}, false, true});
    variants[1].pid_tags = true;
    variants[2].write_back = false;
    variants[3].driver.include_kernel = false;
    variants[3].driver.include_pte = true;
    variants[4].driver.include_ifetch = false;
    variants[4].pid_tags = true;
    variants[5].driver.only_pid = 2;

    std::vector<SweepConfig> jobs;
    for (const Variant& v : variants) {
        for (uint32_t block : {4u, 16u, 64u}) {
            for (uint32_t sets : {1u, 16u, 64u}) {
                for (uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
                    jobs.push_back(MakeCacheJob(
                        {.size_bytes = sets * block * assoc,
                         .block_bytes = block,
                         .assoc = assoc,
                         .write_back = v.write_back,
                         .pid_tags = v.pid_tags},
                        v.driver));
                }
            }
        }
    }
    // A duplicate row joins its twin's group.
    jobs.push_back(jobs[7]);

    const cache::CacheConfig base{.size_bytes = 4096, .block_bytes = 16,
                                  .assoc = 4};
    cache::CacheConfig c = base;
    c.replacement = cache::Replacement::kFifo;
    jobs.push_back(MakeCacheJob(c, {}, "fifo"));
    c = base;
    c.replacement = cache::Replacement::kRandom;
    jobs.push_back(MakeCacheJob(c, {}, "random"));
    c = base;
    c.prefetch_next_on_miss = true;
    jobs.push_back(MakeCacheJob(c, {}, "obl"));
    cache::DriverOptions flushing;
    flushing.flush_on_switch = true;
    jobs.push_back(MakeCacheJob(base, flushing, "flush"));
    c = base;
    c.write_allocate = false;
    jobs.push_back(MakeCacheJob(c, {}, "no-allocate"));
    c = base;
    c.assoc = 0;
    jobs.push_back(MakeCacheJob(c, {}, "full"));
    c = base;
    c.assoc = 32;
    jobs.push_back(MakeCacheJob(c, {}, "32-way"));
    jobs.push_back(MakeHierarchyJob(cache::HierarchyConfig{}));
    jobs.push_back(MakeTlbJob({.entries = 64}));
    c = base;
    c.size_bytes = 3000;
    jobs.push_back(MakeCacheJob(c, {}, "bad-geometry"));
    // Eligible again after the ineligible rows: groups span the sweep.
    jobs.push_back(MakeCacheJob({.size_bytes = 2048, .block_bytes = 16,
                                 .assoc = 2}));
    return jobs;
}

TEST(StackReplay, EveryRowMatchesReplayOne)
{
    const std::vector<SweepConfig> jobs = DifferentialConfigs();
    for (uint64_t seed : {1u, 2u, 3u}) {
        const std::vector<Record> records = DifferentialTrace(seed, 20000);
        std::vector<SweepResult> oracle;
        for (const SweepConfig& job : jobs)
            oracle.push_back(ReplayOne(records, job));
        for (unsigned threads : {1u, 4u}) {
            const auto results = SweepRunner(threads).Run(records, jobs);
            ASSERT_EQ(results.size(), jobs.size());
            for (size_t i = 0; i < jobs.size(); ++i)
                ExpectIdentical(results[i], oracle[i], i);
        }
        // The bad row errors only itself.
        for (size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(oracle[i].status.ok(), jobs[i].label != "bad-geometry")
                << i;
    }
}

TEST(StackReplay, WriteBackLeavesEachLevelOnce)
{
    // One set, 16-byte blocks: a 1-way and a 2-way cache share a stack.
    // A is written, then B evicts it dirty from the 1-way level only.
    // A is read back and evicted clean: no second write-back there. C
    // finally pushes the still-dirty A out of the 2-way level.
    auto ref = [](uint32_t addr, RecordType type) {
        Record r;
        r.addr = addr;
        r.type = type;
        r.flags = MakeFlags(false, 4);
        return r;
    };
    const uint32_t a = 0x100, b = 0x200, c = 0x300;
    const std::vector<Record> records = {
        ref(a, RecordType::kWrite), ref(b, RecordType::kRead),
        ref(a, RecordType::kRead),  ref(b, RecordType::kRead),
        ref(c, RecordType::kRead)};
    const std::vector<SweepConfig> jobs = {
        MakeCacheJob({.size_bytes = 16, .block_bytes = 16, .assoc = 1}),
        MakeCacheJob({.size_bytes = 32, .block_bytes = 16, .assoc = 2})};
    const auto results = SweepRunner(1).Run(records, jobs);
    for (size_t i = 0; i < jobs.size(); ++i)
        ExpectIdentical(results[i], ReplayOne(records, jobs[i]), i);
    EXPECT_EQ(results[0].cache_stats.misses, 5u);
    EXPECT_EQ(results[0].cache_stats.writebacks, 1u);
    EXPECT_EQ(results[1].cache_stats.misses, 3u);
    EXPECT_EQ(results[1].cache_stats.writebacks, 1u);
    EXPECT_EQ(results[1].cache_stats.write_misses, 1u);
}

TEST(SweepRunner, EmptyConfigListAndEmptyTrace)
{
    EXPECT_TRUE(SweepRunner(2).Run(SyntheticTrace(100), {}).empty());
    const auto results =
        SweepRunner(2).Run({}, {MakeCacheJob({.size_bytes = 1024})});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].cache_stats.accesses, 0u);
}

TEST(SweepRunner, ResultsStayInInputOrder)
{
    const std::vector<Record> records = SyntheticTrace(2000);
    std::vector<SweepConfig> jobs;
    for (uint32_t kib : {64u, 1u, 16u, 4u})  // deliberately unsorted
        jobs.push_back(MakeCacheJob({.size_bytes = kib << 10}));
    const auto results = SweepRunner(4).Run(records, jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].label, jobs[0].label);
    EXPECT_EQ(results[1].label, jobs[1].label);
    // Bigger cache can't miss more on the same LRU-friendly stream.
    EXPECT_LE(results[0].cache_stats.misses, results[1].cache_stats.misses);
}

TEST(SweepRunner, BadConfigErrorsItsRowOnly)
{
    const std::vector<Record> records = SyntheticTrace(5000);
    std::vector<SweepConfig> jobs;
    jobs.push_back(MakeCacheJob(
        {.size_bytes = 16u << 10, .block_bytes = 16, .assoc = 1}));
    // 17K is not a power of two: constructing this Cache would Fatal.
    jobs.push_back(MakeCacheJob(
        {.size_bytes = 17u << 10, .block_bytes = 16, .assoc = 1}, {},
        "bad-cache"));
    jobs.push_back(MakeTlbJob({.entries = 63}, "bad-tlb"));
    cache::HierarchyConfig hier;
    hier.l2.assoc = 3;  // 4096 blocks do not divide into 3 ways
    jobs.push_back(MakeHierarchyJob(hier, "bad-hier"));
    jobs.push_back(MakeTlbJob({.entries = 64}));

    const auto results = SweepRunner(2).Run(records, jobs);
    ASSERT_EQ(results.size(), 5u);

    // Healthy rows are untouched by their neighbors' failures.
    EXPECT_TRUE(results[0].status.ok());
    EXPECT_GT(results[0].cache_stats.accesses, 0u);
    EXPECT_TRUE(results[4].status.ok());
    EXPECT_GT(results[4].tlb_stats.accesses, 0u);

    // Bad rows carry their error and zeroed statistics, labels intact.
    EXPECT_EQ(results[1].status.code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(results[1].cache_stats.accesses, 0u);
    EXPECT_EQ(results[1].label, "bad-cache");
    EXPECT_EQ(results[2].status.code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(results[2].label, "bad-tlb");
    EXPECT_FALSE(results[3].status.ok());
    EXPECT_NE(results[3].status.message().find("l2"), std::string::npos);
}

TEST(SweepRunner, ReplayOneValidatesBeforeConstructing)
{
    const SweepResult result =
        ReplayOne({}, MakeCacheJob({.size_bytes = 1u << 10,
                                    .block_bytes = 2048}));
    EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument);
}

TEST(PerProcessProfiles, ParallelMatchesSerialSubstreams)
{
    const std::vector<Record> records = SyntheticTrace(20000);
    analysis::ProcessProfileOptions options;
    options.capacities = {16, 256, 4096};

    const auto one = analysis::PerProcessStackProfiles(records, options, 1);
    const auto four = analysis::PerProcessStackProfiles(records, options, 4);
    ASSERT_EQ(one.size(), four.size());
    ASSERT_GE(one.size(), 3u);  // kernel + three user pids
    for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].pid, four[i].pid);
        EXPECT_EQ(one[i].accesses, four[i].accesses);
        EXPECT_EQ(one[i].cold_misses, four[i].cold_misses);
        EXPECT_EQ(one[i].distinct_blocks, four[i].distinct_blocks);
        EXPECT_EQ(one[i].misses_at_capacity, four[i].misses_at_capacity);
    }

    // Cross-check one pid against a hand-built serial analyzer.
    const uint16_t pid = one[1].pid;
    analysis::StackDistanceAnalyzer sd(0);
    uint16_t current = 0;
    for (const Record& r : records) {
        if (r.type == RecordType::kCtxSwitch) {
            current = r.info;
            continue;
        }
        if (!r.IsMemory() || r.type == RecordType::kPte || r.kernel())
            continue;
        if (current == pid)
            sd.TouchBlock(r.addr >> options.block_shift);
    }
    EXPECT_EQ(one[1].accesses, sd.total_accesses());
    EXPECT_EQ(one[1].cold_misses, sd.cold_misses());
    EXPECT_EQ(one[1].misses_at_capacity[1], sd.MissesForCapacity(256));
}

TEST(PerProcessProfiles, KernelExclusionDropsPidZero)
{
    const std::vector<Record> records = SyntheticTrace(5000);
    analysis::ProcessProfileOptions options;
    options.include_kernel = false;
    const auto profiles =
        analysis::PerProcessStackProfiles(records, options, 2);
    for (const auto& p : profiles)
        EXPECT_NE(p.pid, 0);
}

}  // namespace
}  // namespace atum::replay
