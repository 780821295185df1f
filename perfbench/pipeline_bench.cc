// atum_pipeline_bench: the whole-pipeline benchmark (perfbench/NOTES.md).
//
//   atum_pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                       --work-dir DIR [--digests FILE] [--spans-out FILE]
//                       [--inject flip-byte|bad-row]
//
// One pipeline iteration builds the guests and boots the machine, captures
// with core::AtumTracer into a trace::FileSink on a real file (sealed and
// fsynced), reads it back with trace::LoadTrace, checks it with
// analysis::Crosscheck against the machine's cpu::EventCounters, and
// replays it with replay::SweepRunner (plus a stack-distance profile on
// replay-sweep). After one warm-up iteration the benchmark repeats the
// pipeline until --seconds is used up and reports means over the
// iterations, scaled by a host-speed factor (host_speed.h).
//
// --trace 0 prints the end-to-end metrics. --trace 1 additionally times
// the calls into each layer (untraced run, counting-sink capture, the
// file write path, read/scan, CRC, serial replays), prints the per-layer
// metrics and writes the benchmark's spans to --spans-out.
//
// Every run checks its outputs (the correctness gate in NOTES.md). The
// last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every check passed. --inject
// deliberately breaks one output so the gate's teeth can be tested.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/crosscheck.h"
#include "analysis/parallel_profiles.h"
#include "analysis/stack_distance.h"
#include "bench_spans.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "digest.h"
#include "host_speed.h"
#include "kernel/boot.h"
#include "replay/sweep.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "util/crc32.h"
#include "workloads/workloads.h"

namespace atum::perfbench {
namespace {

constexpr uint64_t kMaxInstructions = 2'000'000'000;

/**
 * How far below zero a part of the traced capture split may read before
 * the split counts as wrong, as a share of the file capture. The tracer
 * and encode parts are differences between separate captures, so on a
 * short capture they can come out slightly negative from noise.
 */
constexpr double kSplitNoise = 0.05;

// ---------------------------------------------------------------------------
// Workloads. Why each exists is in NOTES.md; the sizes are chosen so one
// pipeline iteration takes a few seconds on a 4-vCPU host.

/** Per-guest LCG seed derived from the benchmark seed (splitmix64). */
uint32_t
GuestSeed(uint64_t seed, uint32_t guest)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + guest + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<uint32_t>(z) | 1u;
}

std::vector<kernel::GuestProgram>
CaptureMixGuests(uint64_t seed)
{
    constexpr uint32_t kScale = 8;
    return {workloads::MakeHash(2500 * kScale, GuestSeed(seed, 0)),
            workloads::MakeSort(600 * kScale, GuestSeed(seed, 1)),
            workloads::MakeGrep(8192 * kScale, 6, GuestSeed(seed, 2))};
}

std::vector<kernel::GuestProgram>
OsChurnGuests(uint64_t seed)
{
    constexpr uint32_t kScale = 16;
    return {workloads::MakeServer(300 * kScale, GuestSeed(seed, 0)),
            workloads::MakeForkWave(48, GuestSeed(seed, 1)),
            workloads::MakeIoStorm(40 * kScale, GuestSeed(seed, 2)),
            workloads::MakeTlbThrash(192 * kScale, 8, GuestSeed(seed, 3)),
            workloads::MakeSmc(400 * kScale, GuestSeed(seed, 4))};
}

std::vector<kernel::GuestProgram>
ReplaySweepGuests(uint64_t seed)
{
    return {workloads::MakeMatrix(38, GuestSeed(seed, 0)),
            workloads::MakeListProc(600, 24, GuestSeed(seed, 1)),
            workloads::MakeFft(1024, GuestSeed(seed, 2)),
            workloads::MakeEditor(60, 4, GuestSeed(seed, 3)),
            workloads::MakeQueueSim(900, GuestSeed(seed, 4))};
}

cache::CacheConfig
Geometry(uint32_t size_bytes, uint32_t block_bytes, uint32_t assoc)
{
    cache::CacheConfig c;
    c.size_bytes = size_bytes;
    c.block_bytes = block_bytes;
    c.assoc = assoc;
    return c;
}

tlbsim::TlbSimConfig
TlbGeometry(uint32_t entries, uint32_t ways)
{
    tlbsim::TlbSimConfig t;
    t.entries = entries;
    t.ways = ways;
    return t;
}

/** Two caches, the default hierarchy and one TLB: one row per model. */
std::vector<replay::SweepConfig>
SmallSweep()
{
    return {replay::MakeCacheJob(Geometry(64u << 10, 16, 1)),
            replay::MakeCacheJob(Geometry(8u << 10, 32, 2)),
            replay::MakeHierarchyJob(cache::HierarchyConfig{}),
            replay::MakeTlbJob(TlbGeometry(64, 0))};
}

/**
 * Size x block x associativity grid, the paper's user-only comparison
 * (kernel references dropped) on two columns of it, hierarchies and TLBs.
 */
std::vector<replay::SweepConfig>
LargeSweep()
{
    std::vector<replay::SweepConfig> configs;
    for (uint32_t kib : {1u, 4u, 16u, 64u, 256u})
        for (uint32_t block : {16u, 32u, 64u})
            for (uint32_t assoc : {1u, 2u, 4u})
                configs.push_back(
                    replay::MakeCacheJob(Geometry(kib << 10, block, assoc)));
    cache::DriverOptions user_only;
    user_only.include_kernel = false;
    for (uint32_t kib : {1u, 4u, 16u, 64u, 256u}) {
        for (const cache::CacheConfig& c :
             {Geometry(kib << 10, 16, 1), Geometry(kib << 10, 32, 2)})
            configs.push_back(replay::MakeCacheJob(
                c, user_only, c.ToString() + " user-only"));
    }
    for (uint32_t l2_kib : {64u, 256u}) {
        cache::HierarchyConfig h;
        h.l2.size_bytes = l2_kib << 10;
        configs.push_back(replay::MakeHierarchyJob(h));
    }
    cache::HierarchyConfig flushing;
    flushing.flush_on_switch = true;
    configs.push_back(replay::MakeHierarchyJob(flushing));
    for (uint32_t entries : {32u, 64u, 128u})
        configs.push_back(replay::MakeTlbJob(TlbGeometry(entries, 0)));
    configs.push_back(replay::MakeTlbJob(TlbGeometry(64, 2)));
    return configs;
}

struct Workload {
    const char* name;
    uint32_t mem_mb;
    std::vector<kernel::GuestProgram> (*guests)(uint64_t seed);
    std::vector<replay::SweepConfig> (*sweep)();
    bool stack_distance;  ///< the profile is part of the pipeline
};

constexpr Workload kWorkloads[] = {
    {"capture-mix", 4, CaptureMixGuests, SmallSweep, false},
    {"os-churn", 8, OsChurnGuests, SmallSweep, false},
    {"replay-sweep", 4, ReplaySweepGuests, LargeSweep, true},
};

// ---------------------------------------------------------------------------
// Options and the correctness gate.

struct Options {
    const Workload* workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string work_dir;
    std::string digests;
    std::string spans_out;
    std::string inject;  ///< "", "flip-byte" or "bad-row"
};

[[noreturn]] void
Usage(const std::string& why)
{
    std::fprintf(stderr, "atum_pipeline_bench: %s\n", why.c_str());
    std::exit(2);
}

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            Usage(arg + " requires a value");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            for (const Workload& w : kWorkloads)
                if (value == w.name)
                    opts.workload = &w;
            if (opts.workload == nullptr)
                Usage("unknown workload " + value);
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), nullptr, 0);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            opts.traced = value == "1";
        } else if (arg == "--work-dir") {
            opts.work_dir = value;
        } else if (arg == "--digests") {
            opts.digests = value;
        } else if (arg == "--spans-out") {
            opts.spans_out = value;
        } else if (arg == "--inject") {
            if (value != "flip-byte" && value != "bad-row")
                Usage("unknown --inject " + value);
            opts.inject = value;
        } else {
            Usage("unknown argument " + arg);
        }
    }
    if (opts.workload == nullptr || opts.work_dir.empty())
        Usage("--workload and --work-dir are required");
    if (!(opts.seconds > 0))
        Usage("--seconds must be positive");
    return opts;
}

/** Counts every check; a failed one is reported on stderr. */
class Gate
{
  public:
    bool Check(bool ok, const std::string& what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
        return ok;
    }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// The machine under capture.

/** A booted machine with its tracer; members destruct tracer-first. */
struct Rig {
    std::unique_ptr<cpu::Machine> machine;
    std::unique_ptr<trace::FileSink> file;  ///< null: counting sink
    trace::CountingSink counting;
    std::unique_ptr<core::AtumTracer> tracer;
};

std::unique_ptr<Rig>
BootRig(const Workload& w, const std::vector<kernel::GuestProgram>& programs,
        std::unique_ptr<trace::FileSink> file)
{
    auto rig = std::make_unique<Rig>();
    cpu::Machine::Config config;
    config.mem_bytes = w.mem_mb << 20;
    config.timer_reload = 2000;
    rig->machine = std::make_unique<cpu::Machine>(config);
    rig->file = std::move(file);
    trace::TraceSink& sink = rig->file
                                 ? static_cast<trace::TraceSink&>(*rig->file)
                                 : rig->counting;
    rig->tracer = std::make_unique<core::AtumTracer>(*rig->machine, sink);
    kernel::BootSystem(*rig->machine, programs);
    return rig;
}

// ---------------------------------------------------------------------------
// One end-to-end pipeline iteration.

/** Set-ups timed per iteration: one takes milliseconds, so take several. */
constexpr int kSetupSamples = 8;

/**
 * Sweep jobs in the timed pipeline. One, because the shared host's
 * parallel capacity swings between one and four cores within seconds
 * (a 4-thread spin loop measured 0.10-0.64 s for 0.065 s of one-core
 * work), so a multi-job wall time does not repeat. The warm-up and the
 * traced run sweep again with ParallelJobs().
 */
constexpr unsigned kPipelineJobs = 1;

unsigned
ParallelJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** One iteration; seconds are raw host time (see host_speed.h). */
struct Pipeline {
    std::vector<double> setup_s;  ///< kSetupSamples set-ups
    double build_s = 0, boot_s = 0;  ///< the captured rig's set-up split
    double capture_s = 0, readback_s = 0, crosscheck_s = 0, sweep_s = 0,
           stack_distance_s = 0;
    double wall_s = 0;  ///< capture through the last stage, probes excluded

    core::SessionResult session;
    std::string console;
    cpu::EventCounters ev;
    uint64_t file_bytes = 0;
    uint64_t record_count = 0;  ///< records read back (kept after `records`)
    std::vector<trace::Record> records;
    std::vector<replay::SweepConfig> configs;
    std::vector<replay::SweepResult> rows;
    std::vector<uint64_t> sd_misses;

    double StageSum() const
    {
        return capture_s + readback_s + crosscheck_s + sweep_s +
               stack_distance_s;
    }
};

/** Global LRU profile plus per-process profiles, as atum-report does. */
std::vector<uint64_t>
StackDistanceProfile(const std::vector<trace::Record>& records)
{
    analysis::StackDistanceAnalyzer sd(4);
    for (const trace::Record& r : records)
        sd.Feed(r);
    std::vector<uint64_t> misses;
    for (uint64_t kib : {1u, 4u, 16u, 64u, 256u})
        misses.push_back(sd.MissesForCapacity((kib << 10) >> 4));
    for (const analysis::ProcessProfile& p : analysis::PerProcessStackProfiles(
             records, analysis::ProcessProfileOptions{}, kPipelineJobs))
        for (uint64_t m : p.misses_at_capacity)
            misses.push_back(m);
    return misses;
}

void
FlipByte(const std::string& path, uint64_t offset)
{
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr)
        return;
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
}

std::string
TracePath(const Options& opts)
{
    return opts.work_dir + "/" + opts.workload->name + ".atf2";
}

/**
 * Runs one iteration and checks its outputs. Returns false when the
 * pipeline could not continue (its outputs are then unusable).
 */
bool
RunPipeline(const Options& opts, SpanRecorder* spans, HostSpeed& host,
            Gate& gate, Pipeline& p)
{
    const Workload& w = *opts.workload;
    const std::string path = TracePath(opts);
    std::filesystem::remove(path);
    util::StatusOr<std::unique_ptr<trace::FileSink>> file =
        trace::FileSink::Open(path);
    if (!gate.Check(file.ok(), "open " + path))
        return false;
    trace::FileSink& sink = **file;
    host.Probe();

    // Several set-ups; the last boots the rig that is captured. Each spare
    // rig is destroyed after its set-up's timer stops.
    for (int i = 1; i < kSetupSamples; ++i) {
        std::unique_ptr<Rig> spare;
        p.setup_s.push_back(host.Stage("setup.sample", [&] {
            spare = BootRig(w, w.guests(opts.seed), nullptr);
        }));
    }
    std::unique_ptr<Rig> rig;
    p.setup_s.push_back(host.Stage("setup", [&] {
        std::vector<kernel::GuestProgram> programs;
        {
            Timer t(spans, "workloads.build");
            programs = w.guests(opts.seed);
            p.build_s = t.Stop();
        }
        Timer t(spans, "kernel.boot");
        rig = BootRig(w, programs, std::move(*file));
        p.boot_s = t.Stop();
    }));

    p.configs = w.sweep();
    if (opts.inject == "bad-row")
        p.configs.push_back(replay::MakeCacheJob(Geometry(3000, 16, 1)));

    util::Status close_status;
    util::Status load_status;
    analysis::CrosscheckReport crosscheck;
    const double probing_before = host.probing_s();
    Timer pipeline(spans, "pipeline");
    p.capture_s = host.Stage("capture", [&] {
        p.session = core::RunTraced(*rig->machine, *rig->tracer,
                                    kMaxInstructions);
        close_status = sink.Close();
    });
    if (opts.inject == "flip-byte")
        FlipByte(path, sink.bytes_written() / 2);
    p.readback_s = host.Stage("readback", [&] {
        util::StatusOr<std::vector<trace::Record>> loaded =
            trace::LoadTrace(path);
        if (loaded.ok())
            p.records = std::move(*loaded);
        else
            load_status = loaded.status();
    });
    p.crosscheck_s = host.Stage("crosscheck", [&] {
        crosscheck =
            analysis::Crosscheck(p.records, rig->machine->event_counters());
    });
    p.sweep_s = host.Stage("sweep", [&] {
        p.rows = replay::SweepRunner(kPipelineJobs).Run(p.records, p.configs);
    });
    if (w.stack_distance)
        p.stack_distance_s = host.Stage("stack_distance", [&] {
            p.sd_misses = StackDistanceProfile(p.records);
        });
    p.wall_s = pipeline.Stop() - (host.probing_s() - probing_before);

    p.record_count = p.records.size();
    p.console = rig->machine->console_output();
    p.ev = rig->machine->event_counters();
    std::error_code ec;
    p.file_bytes = std::filesystem::file_size(path, ec);

    const core::SessionResult& c = p.session;
    gate.Check(c.halted, "guest halted");
    gate.Check(c.drain_status.ok() && close_status.ok() &&
                   c.lost_records == 0 && !c.degraded,
               "capture sealed without loss: " + close_status.ToString());
    gate.Check(load_status.ok(), "trace intact: " + load_status.ToString());
    gate.Check(p.records.size() == c.records && sink.count() == c.records,
               "read back " + std::to_string(p.records.size()) + " of " +
                   std::to_string(c.records) + " records");
    gate.Check(crosscheck.passed(), "crosscheck\n" + crosscheck.ToString());
    for (const replay::SweepResult& row : p.rows)
        gate.Check(row.status.ok(),
                   "sweep row " + row.label + ": " + row.status.ToString());
    const double coverage = p.StageSum() / p.wall_s;
    gate.Check(std::fabs(coverage - 1.0) <= 0.01,
               "stage times cover the pipeline wall (" +
                   std::to_string(100.0 * coverage) + " %)");
    return load_status.ok();
}

// ---------------------------------------------------------------------------
// Checks shared by the warm-up and the traced run.

bool
SameRow(const replay::SweepResult& a, const replay::SweepResult& b)
{
    auto same = [](const auto& x, const auto& y) {
        return std::memcmp(&x, &y, sizeof(x)) == 0;
    };
    return a.status.ok() == b.status.ok() && a.fed == b.fed &&
           a.filtered == b.filtered && same(a.cache_stats, b.cache_stats) &&
           same(a.l1i_stats, b.l1i_stats) && same(a.l1d_stats, b.l1d_stats) &&
           same(a.l2_stats, b.l2_stats) &&
           a.hierarchy_accesses == b.hierarchy_accesses &&
           a.memory_accesses == b.memory_accesses &&
           same(a.global_miss_rate, b.global_miss_rate) &&
           same(a.amat, b.amat) && same(a.tlb_stats, b.tlb_stats);
}

bool
SameRows(const std::vector<replay::SweepResult>& a,
         const std::vector<replay::SweepResult>& b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!SameRow(a[i], b[i]))
            return false;
    return true;
}

/**
 * Untraced run of a fresh, identical machine (its tracer reserves the
 * buffer but is never attached): tracing must be transparent.
 */
double
RunUntracedRig(const Options& opts, HostSpeed& host, Gate& gate,
               const Pipeline& p, uint64_t* ucycles)
{
    const std::unique_ptr<Rig> rig =
        BootRig(*opts.workload, opts.workload->guests(opts.seed), nullptr);
    core::SessionResult u;
    const double seconds = host.Stage("cpu.untraced", [&] {
        u = core::RunUntraced(*rig->machine, kMaxInstructions);
    });
    *ucycles = u.ucycles;
    gate.Check(u.halted && u.instructions == p.session.instructions &&
                   rig->machine->console_output() == p.console,
               "tracing is transparent: untraced run retired " +
                   std::to_string(u.instructions) + " instructions, traced " +
                   std::to_string(p.session.instructions));
    return seconds;
}

/** The sweep again with ParallelJobs(): rows must match bit for bit. */
double
RunParallelSweep(HostSpeed& host, Gate& gate, const Pipeline& p)
{
    std::vector<replay::SweepResult> rows;
    const double seconds = host.Stage("replay.parallel_sweep", [&] {
        rows = replay::SweepRunner(ParallelJobs()).Run(p.records, p.configs);
    });
    gate.Check(SameRows(rows, p.rows),
               "a " + std::to_string(ParallelJobs()) +
                   "-job sweep matches the pipeline's rows bit for bit");
    return seconds;
}

Digest
MakeDigest(const Pipeline& p, bool with_crc)
{
    Digest d;
    d.records = p.records.size();
    d.stream_crc = with_crc ? RecordStreamCrc(p.records) : 0;
    d.ucycles = p.session.ucycles;
    d.ev = p.ev;
    d.sweep_misses = SweepMisses(p.rows);
    d.sd_misses = p.sd_misses;
    return d;
}

void
CheckPinnedDigest(const Options& opts, Gate& gate, const Digest& digest)
{
    std::printf("digest: %s %llu %s\n", opts.workload->name,
                static_cast<unsigned long long>(opts.seed),
                digest.ToString().c_str());
    if (opts.digests.empty())
        return;
    util::StatusOr<std::map<std::string, std::string>> pins =
        LoadPinnedDigests(opts.digests);
    if (!gate.Check(pins.ok(), "pinned digests: " + pins.status().ToString()))
        return;
    const auto it = pins->find(std::string(opts.workload->name) + " " +
                               std::to_string(opts.seed));
    if (it == pins->end())
        return;  // no pin for this seed; iterations are still compared
    gate.Check(it->second == digest.ToString(),
               "digest matches the pinned one: " + it->second);
}

// ---------------------------------------------------------------------------
// Layer measurements for the traced run.

/** ByteSink wrapper timing the file layer underneath the container. */
class TimedByteSink : public trace::ByteSink
{
  public:
    struct Tally {
        uint64_t write_ns = 0;
        uint64_t write_calls = 0;
        uint64_t bytes = 0;
        uint64_t sync_ns = 0;
    };

    TimedByteSink(std::unique_ptr<trace::ByteSink> inner, Tally& tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }

    util::Status Write(const void* data, size_t len) override
    {
        const uint64_t t0 = NowNs();
        util::Status s = inner_->Write(data, len);
        tally_.write_ns += NowNs() - t0;
        ++tally_.write_calls;
        tally_.bytes += len;
        return s;
    }
    util::Status Flush() override { return inner_->Flush(); }
    util::Status Sync() override { return Synced(&trace::ByteSink::Sync); }
    /** FileByteSink::Close is fsync-then-close: count it as sync. */
    util::Status Close() override { return Synced(&trace::ByteSink::Close); }

  private:
    util::Status Synced(util::Status (trace::ByteSink::*op)())
    {
        const uint64_t t0 = NowNs();
        util::Status s = (inner_.get()->*op)();
        tally_.sync_ns += NowNs() - t0;
        return s;
    }

    std::unique_ptr<trace::ByteSink> inner_;
    Tally& tally_;
};

/** Keeps the timed CRC from being optimised away. */
volatile uint32_t g_crc_sink = 0;

/** One traced iteration's layer times; seconds are raw host time. */
struct Layers {
    double untraced_s = 0, counting_s = 0, file_capture_s = 0;
    double write_s = 0, sync_s = 0;
    uint64_t write_calls = 0, write_bytes = 0;
    uint64_t ucycles_untraced = 0;
    double read_s = 0, scan_s = 0, crc_s = 0, stack_distance_s = 0,
           parallel_sweep_s = 0;
    uint64_t file_bytes = 0, chunks = 0;
    double serial_s[3] = {0, 0, 0};  ///< by SweepConfig::Kind
    uint64_t serial_rows[3] = {0, 0, 0};

    double SerialSum() const { return serial_s[0] + serial_s[1] + serial_s[2]; }
};

void
RunLayers(const Options& opts, SpanRecorder* spans, HostSpeed& host,
          Gate& gate, const Pipeline& p, Layers& l)
{
    const Workload& w = *opts.workload;
    Timer layers(spans, "layers");
    const std::vector<kernel::GuestProgram> programs = w.guests(opts.seed);

    // cpu, isa, ucode, mmu, mem: the interpreter alone.
    l.untraced_s = RunUntracedRig(opts, host, gate, p, &l.ucycles_untraced);

    // core: the ATUM patch and extraction into a sink that keeps nothing.
    {
        const std::unique_ptr<Rig> rig = BootRig(w, programs, nullptr);
        l.counting_s = host.Stage("core.counting_capture", [&] {
            core::RunTraced(*rig->machine, *rig->tracer, kMaxInstructions);
        });
        gate.Check(rig->counting.count() == p.session.records,
                   "counting capture saw the same records");
    }

    // trace + io: the same capture into the file through a timing sink.
    const std::string path = TracePath(opts);
    std::filesystem::remove(path);
    TimedByteSink::Tally tally;
    {
        util::StatusOr<std::unique_ptr<trace::FileByteSink>> out =
            trace::FileByteSink::Open(path);
        if (!gate.Check(out.ok(), "open " + path))
            return;
        auto file = std::make_unique<trace::FileSink>(
            std::make_unique<TimedByteSink>(std::move(*out), tally));
        trace::FileSink& sink = *file;
        const std::unique_ptr<Rig> rig = BootRig(w, programs, std::move(file));
        util::Status closed;
        core::SessionResult c;
        l.file_capture_s = host.Stage("io.file_capture", [&] {
            c = core::RunTraced(*rig->machine, *rig->tracer, kMaxInstructions);
            closed = sink.Close();
        });
        gate.Check(closed.ok() && c.records == p.session.records,
                   "timed file capture sealed the same records");
    }
    l.write_s = tally.write_ns * 1e-9;
    l.sync_s = tally.sync_ns * 1e-9;
    l.write_calls = tally.write_calls;
    l.write_bytes = tally.bytes;

    // io, then trace: read-back split into the read and the scan.
    std::error_code ec;
    std::vector<uint8_t> bytes(std::filesystem::file_size(path, ec));
    bool opened = true;
    l.read_s = host.Stage("io.read", [&] {
        util::StatusOr<std::unique_ptr<trace::FileByteSource>> in =
            trace::FileByteSource::Open(path);
        opened = in.ok();
        if (!opened)
            return;
        size_t got = 0;
        while (got < bytes.size()) {
            util::StatusOr<size_t> n =
                (*in)->Read(bytes.data() + got, bytes.size() - got);
            if (!n.ok() || *n == 0)
                break;
            got += *n;
        }
        bytes.resize(got);
    });
    if (!gate.Check(opened, "reopen " + path))
        return;
    {
        std::vector<trace::Record> records;
        trace::ScanReport report;
        l.scan_s = host.Stage("trace.scan", [&] {
            trace::MemoryByteSource source(bytes);
            report = trace::ScanTrace(source, &records);
        });
        l.file_bytes = report.file_bytes;
        l.chunks = report.chunks_ok;
        gate.Check(report.intact() && records.size() == p.records.size(),
                   "scan of the written trace is intact\n" +
                       report.ToString());
    }
    l.crc_s = host.Stage("util.crc32c", [&] {
        g_crc_sink = util::Crc32cExtend(0, bytes.data(), bytes.size());
    });

    // analysis: the stack-distance profile, where the pipeline has none.
    l.stack_distance_s =
        w.stack_distance
            ? p.stack_distance_s
            : host.Stage("analysis.stack_distance",
                         [&] { StackDistanceProfile(p.records); });

    // replay, cache, tlbsim: every sweep row again, serially, then the
    // whole sweep with ParallelJobs().
    {
        Timer serial(spans, "replay.serial");
        for (size_t i = 0; i < p.configs.size(); ++i) {
            static constexpr const char* kKindSpan[] = {
                "cache.replay", "cache.hierarchy_replay", "tlbsim.replay"};
            const size_t kind = static_cast<size_t>(p.configs[i].kind);
            replay::SweepResult row;
            l.serial_s[kind] += host.Stage(kKindSpan[kind], [&] {
                row = replay::ReplayOne(p.records, p.configs[i]);
            });
            l.serial_rows[kind] += 1;
            gate.Check(SameRow(row, p.rows[i]),
                       "serial replay of row " + row.label +
                           " matches the sweep");
        }
    }
    l.parallel_sweep_s = RunParallelSweep(host, gate, p);
}

// ---------------------------------------------------------------------------
// Reporting.

/**
 * Mean over a run's iterations. Stage times on a shared host are
 * bimodal (for example, a capture-mix sweep takes ~0.70 s or ~0.92 s),
 * and a median of about ten such samples jumps between the modes; the
 * mean, which is the run's total work over its total time, does not.
 */
template <typename T, typename F>
double
MeanOf(const std::vector<T>& samples, F f)
{
    double sum = 0;
    for (const T& s : samples)
        sum += f(s);
    return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

double
PeakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * The gated metrics. Times are raw means scaled by the run's host factor
 * (host_speed.h); the set-up mean pools every sample.
 */
std::vector<Metric>
EndToEndMetrics(const std::vector<Pipeline>& runs, double factor)
{
    const Pipeline& last = runs.back();
    const double records = static_cast<double>(last.record_count);
    const double instructions =
        static_cast<double>(last.session.instructions);
    std::vector<double> setups;
    for (const Pipeline& p : runs)
        setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
    auto seconds = [&](auto f) { return factor * MeanOf(runs, f); };
    return {
        {"setup_s", factor * MeanOf(setups, [](double x) { return x; }), "s"},
        {"capture_mips",
         instructions / 1e6 /
             seconds([](const Pipeline& p) { return p.capture_s; }),
         "Minstr/s"},
        {"readback_mrec_s",
         records / 1e6 /
             seconds([](const Pipeline& p) { return p.readback_s; }),
         "Mrec/s"},
        {"replay_mrec_s",
         last.configs.size() * records / 1e6 /
             seconds([](const Pipeline& p) { return p.sweep_s; }),
         "Mrec/s"},
        {"pipeline_s", seconds([](const Pipeline& p) { return p.StageSum(); }),
         "s"},
        {"trace_bytes_per_record", last.file_bytes / records, "B"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
}

std::vector<Metric>
PerLayerMetrics(const std::vector<Pipeline>& runs,
                const std::vector<Layers>& layers, double factor, Gate& gate)
{
    const Pipeline& p = runs.back();
    const Layers& l = layers.back();
    const double records = static_cast<double>(p.record_count);
    const double instr = static_cast<double>(p.session.instructions);
    auto pipe = [&](auto f) { return factor * MeanOf(runs, f); };
    auto layer = [&](auto f) { return factor * MeanOf(layers, f); };
    auto rate = [&](size_t kind) {
        return records / 1e6 / layer([&](const Layers& x) {
                   return x.serial_s[kind] / x.serial_rows[kind];
               });
    };
    const double sweep_s = pipe([](const Pipeline& x) { return x.sweep_s; });
    const double capture_s =
        pipe([](const Pipeline& x) { return x.capture_s; });

    // The traced capture split: the file capture is the interpreter
    // alone, plus the tracer, plus encoding, plus the write and the sync.
    const double untraced_s =
        layer([](const Layers& x) { return x.untraced_s; });
    const double counting_s =
        layer([](const Layers& x) { return x.counting_s; });
    const double file_s =
        layer([](const Layers& x) { return x.file_capture_s; });
    const double write_s = layer([](const Layers& x) { return x.write_s; });
    const double sync_s = layer([](const Layers& x) { return x.sync_s; });
    const double tracer_s = counting_s - untraced_s;
    const double encode_s = file_s - counting_s - write_s - sync_s;
    const double parts[] = {untraced_s, tracer_s, encode_s, write_s, sync_s};
    double sum = 0;
    bool plausible = true;
    for (double part : parts) {
        sum += part;
        plausible = plausible && part >= -kSplitNoise * file_s;
    }
    gate.Check(plausible && std::fabs(sum - file_s) <= 0.01 * file_s,
               "capture split (untraced " + std::to_string(untraced_s) +
                   " + tracer " + std::to_string(tracer_s) + " + encode " +
                   std::to_string(encode_s) + " + write " +
                   std::to_string(write_s) + " + sync " +
                   std::to_string(sync_s) + ") reconstructs the capture " +
                   std::to_string(file_s) + " s");

    const double crc_s = layer([](const Layers& x) { return x.crc_s; });
    const double scan_s = layer([](const Layers& x) { return x.scan_s; });
    const double sd_s =
        layer([](const Layers& x) { return x.stack_distance_s; });
    const double parallel_s =
        layer([](const Layers& x) { return x.parallel_sweep_s; });
    const double serial_s =
        layer([](const Layers& x) { return x.SerialSum(); });
    const cpu::EventCounters& ev = p.ev;
    return {
        {"workloads.build_s", pipe([](const Pipeline& x) { return x.build_s; }),
         "s"},
        {"kernel.boot_s", pipe([](const Pipeline& x) { return x.boot_s; }),
         "s"},
        {"cpu.untraced_s", untraced_s, "s"},
        {"cpu.untraced_mips", instr / untraced_s / 1e6, "Minstr/s"},
        {"cpu.instructions", instr, "count"},
        {"cpu.ev.ifetches", static_cast<double>(ev.ifetches), "count"},
        {"cpu.ev.reads", static_cast<double>(ev.reads), "count"},
        {"cpu.ev.writes", static_cast<double>(ev.writes), "count"},
        {"cpu.ev.tlb_misses", static_cast<double>(ev.tlb_misses), "count"},
        {"cpu.ev.exceptions", static_cast<double>(ev.exceptions), "count"},
        {"cpu.ev.syscalls", static_cast<double>(ev.syscalls), "count"},
        {"cpu.ucycles_untraced", static_cast<double>(l.ucycles_untraced),
         "ucycles"},
        {"core.tracer_s", tracer_s, "s"},
        {"core.records", static_cast<double>(p.session.records), "count"},
        {"core.buffer_fills", static_cast<double>(p.session.buffer_fills),
         "count"},
        {"core.overhead_ucycles",
         static_cast<double>(p.session.overhead_ucycles), "ucycles"},
        {"core.sim_dilation",
         static_cast<double>(p.session.ucycles) /
             static_cast<double>(l.ucycles_untraced),
         "ratio"},
        {"io.write_s", write_s, "s"},
        {"io.write_calls", static_cast<double>(l.write_calls), "count"},
        {"io.write_mb_s", l.write_bytes / write_s / 1e6, "MB/s"},
        {"io.sync_s", sync_s, "s"},
        {"trace.encode_s", encode_s, "s"},
        {"trace.file_bytes", static_cast<double>(l.file_bytes), "B"},
        {"trace.chunks", static_cast<double>(l.chunks), "count"},
        {"util.crc32c_mb_s", l.file_bytes / crc_s / 1e6, "MB/s"},
        {"io.read_s", layer([](const Layers& x) { return x.read_s; }), "s"},
        {"trace.scan_s", scan_s, "s"},
        {"trace.scan_mrec_s", records / scan_s / 1e6, "Mrec/s"},
        {"analysis.crosscheck_s",
         pipe([](const Pipeline& x) { return x.crosscheck_s; }), "s"},
        {"analysis.stack_distance_s", sd_s, "s"},
        {"analysis.stack_distance_mrec_s", records / sd_s / 1e6, "Mrec/s"},
        {"cache.replay_mrec_s", rate(0), "Mrec/s"},
        {"cache.hierarchy_mrec_s", rate(1), "Mrec/s"},
        {"tlbsim.replay_mrec_s", rate(2), "Mrec/s"},
        {"replay.sweep_s", sweep_s, "s"},
        {"replay.configs_per_s", p.configs.size() / sweep_s, "1/s"},
        {"replay.parallel_sweep_s", parallel_s, "s"},
        {"replay.parallel_efficiency",
         serial_s / (ParallelJobs() * parallel_s), "ratio"},
        {"bench.stage_coverage_pct",
         MeanOf(runs,
                  [](const Pipeline& x) {
                      return 100.0 * x.StageSum() / x.wall_s;
                  }),
         "%"},
        {"bench.trace_overhead_pct", 100.0 * (file_s - capture_s) / capture_s,
         "%"},
    };
}

/** Shares that confirm each workload stresses the layers it is for. */
void
PrintDesign(const std::vector<Pipeline>& runs)
{
    const Pipeline& p = runs.back();
    std::printf("design: capture + read-back %.1f %% of pipeline_s, sweep + "
                "stack distance %.1f %%, %.4f syscalls per 1k instructions\n",
                MeanOf(runs,
                       [](const Pipeline& x) {
                           return 100.0 * (x.capture_s + x.readback_s) /
                                  x.StageSum();
                       }),
                MeanOf(runs,
                       [](const Pipeline& x) {
                           return 100.0 * (x.sweep_s + x.stack_distance_s) /
                                  x.StageSum();
                       }),
                1e3 * p.ev.syscalls /
                    static_cast<double>(p.session.instructions));
}

void
PrintResult(const Gate& gate, const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics)
        std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += gate.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(gate.attempted());
    json += ", \"failed\": " + std::to_string(gate.failed());
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

void
PrintIteration(size_t i, const Pipeline& p)
{
    std::printf("iteration %zu (raw s): setup %.4f capture %.4f readback "
                "%.4f crosscheck %.4f sweep %.4f stack_distance %.4f "
                "wall %.4f\n",
                i, p.setup_s.back(), p.capture_s, p.readback_s,
                p.crosscheck_s, p.sweep_s, p.stack_distance_s, p.wall_s);
}

int
Run(const Options& opts)
{
    std::filesystem::create_directories(opts.work_dir);
    const std::string run_id = std::string(opts.workload->name) + "/" +
                               std::to_string(opts.seed) + "/" +
                               std::to_string(NowNs());
    SpanRecorder recorder(run_id);
    SpanRecorder* spans = opts.traced ? &recorder : nullptr;
    Gate gate;
    HostSpeed host(spans);

    std::vector<Pipeline> runs;
    std::vector<Layers> layers;
    Digest first;
    bool ok = true;
    // --seconds bounds the whole loop, warm-up included. A timed
    // iteration starts only if one as long as the last still fits, and
    // at least one always runs.
    const uint64_t start_ns = NowNs();
    uint64_t last_ns = 0;
    for (size_t i = 0; ok; ++i) {
        const bool warmup = i == 0;
        const uint64_t iteration_start_ns = NowNs();
        if (i > 1 && (iteration_start_ns - start_ns + last_ns) * 1e-9 >
                         opts.seconds)
            break;
        Timer iteration(spans, warmup ? "warmup" : "iteration");
        Pipeline p;
        ok = RunPipeline(opts, spans, host, gate, p);
        if (!ok)
            break;
        if (warmup) {
            // The warm-up fills the page cache and the allocator; its
            // times are dropped and its outputs checked more thoroughly.
            uint64_t ucycles = 0;
            RunUntracedRig(opts, host, gate, p, &ucycles);
            RunParallelSweep(host, gate, p);
            const size_t row = opts.seed % p.configs.size();
            gate.Check(SameRow(replay::ReplayOne(p.records, p.configs[row]),
                               p.rows[row]),
                       "serial replay of row " + p.rows[row].label +
                           " matches the sweep");
            first = MakeDigest(p, /*with_crc=*/true);
            CheckPinnedDigest(opts, gate, first);
            continue;
        }
        PrintIteration(i, p);
        Digest d = MakeDigest(p, /*with_crc=*/false);
        d.stream_crc = first.stream_crc;
        gate.Check(d.ToString() == first.ToString(),
                   "iteration repeats the warm-up's digest");
        if (opts.traced) {
            Layers l;
            RunLayers(opts, spans, host, gate, p, l);
            layers.push_back(l);
        }
        std::vector<trace::Record>().swap(p.records);  // free, not just clear
        runs.push_back(std::move(p));
        last_ns = NowNs() - iteration_start_ns;
    }

    std::vector<Metric> metrics;
    if (ok && !runs.empty()) {
        metrics = EndToEndMetrics(runs, host.Factor());
        std::printf("iterations: %zu (+1 warm-up); pipeline sweep jobs %u; "
                    "host factor %.4f (median probe %.6f s, reference "
                    "%.6f s)\n",
                    runs.size(), kPipelineJobs, host.Factor(),
                    host.MedianProbe(), kReferenceProbeSeconds);
        if (opts.traced) {
            // The JSON carries the per-layer metrics; the end-to-end ones
            // are printed above it only.
            for (const Metric& m : metrics)
                std::printf("end-to-end %-28s %.6g %s\n", m.name.c_str(),
                            m.value, m.unit.c_str());
            PrintDesign(runs);
            metrics = PerLayerMetrics(runs, layers, host.Factor(), gate);
        }
    }
    if (opts.traced && !opts.spans_out.empty()) {
        const util::Status s = recorder.Write(opts.spans_out);
        gate.Check(s.ok(), "write spans: " + s.ToString());
        std::printf("spans: %zu written to %s\n", recorder.size(),
                    opts.spans_out.c_str());
    }
    for (const Metric& m : metrics)
        gate.Check(std::isfinite(m.value), "metric " + m.name + " is finite");
    std::erase_if(metrics,
                  [](const Metric& m) { return !std::isfinite(m.value); });
    // failed_ops_frac is printed, not put in the JSON metrics: it is 0 on
    // a passing run, and the JSON's failed/attempted carry it exactly.
    std::printf("metric %-32s %.6g ratio\n", "failed_ops_frac",
                static_cast<double>(gate.failed()) /
                    static_cast<double>(std::max<uint64_t>(gate.attempted(),
                                                           1)));
    PrintResult(gate, metrics);
    return gate.failed() == 0 && ok ? 0 : 1;
}

}  // namespace
}  // namespace atum::perfbench

int
main(int argc, char** argv)
{
    // A fixed mmap threshold turns off glibc's adaptive one, so whether a
    // machine's memory comes from fresh pages or a recycled heap chunk no
    // longer depends on the run's allocation history (it made set-up
    // times bimodal, 1 ms or 3 ms). Large buffers are always fresh pages,
    // as in a new capture process.
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
    return atum::perfbench::Run(atum::perfbench::ParseArgs(argc, argv));
}
