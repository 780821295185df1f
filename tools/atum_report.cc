// atum-report: analyze a captured trace file.
//
// Usage:
//   atum-report trace.atum [--head N] [--cache SIZE_KB:BLOCK:ASSOC]
//                [--sweep SPEC,SPEC,...] [--jobs N]
//                [--flush-on-switch] [--pid-tags] [--no-kernel]
//                [--tlb ENTRIES] [--working-sets] [--stack-distance]
//                [--stats] [--spans SPANS.json]
//   atum-report trace.atf --verify
//   atum-report trace.atf --salvage repaired.atf
//   atum-report trace.atf --crosscheck [--prefix]
//   atum-report --version
//
// --stats appends a dump of the process's metrics registry (replay.*
// counters, per-config wall-time histogram...) after the analyses — a
// quick look at what the replay engine actually did.
//
// --spans FILE exports the report's own span trace (load, each
// analysis, every sweep config across the worker pool) as Chrome
// trace-event JSON for Perfetto / chrome://tracing (docs/TRACING.md).
//
// Default output is the trace-characterization summary (T1-style). Each
// additional flag appends the corresponding analysis. --sweep replays
// every listed cache spec over the trace concurrently (--jobs workers)
// and prints one table row per config, in input order.
//
// --verify runs the tolerant container scanner and prints its damage
// report without analyzing anything; --salvage additionally writes every
// recoverable record to a fresh sealed container.
//
// --crosscheck re-derives the hardware event counters from the record
// stream and compares them against the cpu.ev.* finals in the capture's
// run manifest (<trace>.run.json); any counter outside its derived
// interval fails the run with the corrupt exit code. --prefix marks the
// trace as a salvaged prefix (lower bounds only). See docs/COUNTERS.md.
//
// Exit codes: 0 success (--verify: file intact), 1 internal failure,
// 2 usage error, 3 input missing/unreadable, 4 input corrupt
// (--verify: damage found; --crosscheck: counter mismatch).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/crosscheck.h"
#include "analysis/parallel_profiles.h"
#include "analysis/stack_distance.h"
#include "analysis/working_set.h"
#include "cache/cache.h"
#include "cache/trace_driver.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "replay/sweep.h"
#include "util/build_info.h"
#include "tlbsim/tlb_sim.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/signals.h"
#include "util/status.h"
#include "util/table.h"

namespace atum {
namespace {

struct Options {
    std::string path;
    uint32_t head = 0;
    bool have_cache = false;
    cache::CacheConfig cache_config;
    cache::DriverOptions driver_options;
    std::vector<cache::CacheConfig> sweep_configs;
    uint32_t jobs = 0;  ///< replay workers; 0 = one per hardware thread
    uint32_t tlb_entries = 0;
    bool working_sets = false;
    bool stack_distance = false;
    bool verify = false;        ///< scan and report damage, nothing else
    std::string salvage_out;    ///< write recovered records here
    bool stats = false;         ///< dump the metrics registry at the end
    bool crosscheck = false;    ///< validate counters against the manifest
    bool prefix = false;        ///< trace is a salvaged prefix
    std::string manifest;       ///< run manifest; default <trace>.run.json
    std::string spans_out;      ///< Chrome trace-event export ("" = off)
};

/** Command-line mistakes exit with the usage code, not Fatal's 1. */
template <typename... Args>
[[noreturn]] void
UsageError(Args&&... args)
{
    std::fprintf(stderr, "atum-report: %s\n",
                 internal::StrCat(std::forward<Args>(args)...).c_str());
    std::exit(util::kExitUsage);
}

cache::CacheConfig
ParseCacheSpec(const std::string& spec)
{
    cache::CacheConfig config;
    unsigned size_kb = 0, block = 0, assoc = 0;
    if (std::sscanf(spec.c_str(), "%u:%u:%u", &size_kb, &block, &assoc) != 3)
        UsageError("bad --cache spec '", spec, "', want SIZE_KB:BLOCK:ASSOC");
    config.size_bytes = size_kb << 10;
    config.block_bytes = block;
    config.assoc = assoc;
    return config;
}

std::vector<cache::CacheConfig>
ParseSweepSpecs(const std::string& specs)
{
    std::vector<cache::CacheConfig> configs;
    size_t start = 0;
    while (start <= specs.size()) {
        const size_t comma = specs.find(',', start);
        const std::string spec =
            specs.substr(start, comma == std::string::npos ? std::string::npos
                                                           : comma - start);
        if (spec.empty())
            Fatal("empty spec in --sweep '", specs, "'");
        configs.push_back(ParseCacheSpec(spec));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return configs;
}

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                UsageError(arg, " requires a value");
            return argv[++i];
        };
        auto next_u32 = [&] {
            return static_cast<uint32_t>(
                util::FlagUint("atum-report", arg, next(), 0, UINT32_MAX));
        };
        if (arg == "--head")
            opts.head = next_u32();
        else if (arg == "--cache") {
            opts.cache_config = ParseCacheSpec(next());
            opts.have_cache = true;
        } else if (arg == "--sweep")
            opts.sweep_configs = ParseSweepSpecs(next());
        else if (arg == "--jobs")
            opts.jobs = next_u32();
        else if (arg == "--flush-on-switch")
            opts.driver_options.flush_on_switch = true;
        else if (arg == "--pid-tags")
            opts.cache_config.pid_tags = true;
        else if (arg == "--no-kernel")
            opts.driver_options.include_kernel = false;
        else if (arg == "--tlb")
            opts.tlb_entries = next_u32();
        else if (arg == "--working-sets")
            opts.working_sets = true;
        else if (arg == "--stack-distance")
            opts.stack_distance = true;
        else if (arg == "--verify")
            opts.verify = true;
        else if (arg == "--salvage")
            opts.salvage_out = next();
        else if (arg == "--stats")
            opts.stats = true;
        else if (arg == "--crosscheck")
            opts.crosscheck = true;
        else if (arg == "--prefix")
            opts.prefix = true;
        else if (arg == "--manifest")
            opts.manifest = next();
        else if (arg == "--spans")
            opts.spans_out = next();
        else if (arg == "--version") {
            std::printf("%s\n", util::VersionString("atum-report").c_str());
            std::exit(util::kExitOk);
        }
        else if (!arg.empty() && arg[0] != '-')
            opts.path = arg;
        else
            UsageError("unknown argument: ", arg);
    }
    if (opts.path.empty())
        UsageError("usage: atum-report TRACE [options]");
    return opts;
}

const char*
TypeName(trace::RecordType type)
{
    static const char* const kNames[] = {"ifetch",  "read",   "write",
                                         "pte",     "ctxsw",  "tlbmiss",
                                         "except",  "opcode", "loss",
                                         "dma"};
    return kNames[static_cast<unsigned>(type)];
}

/** `--crosscheck`: validate the trace against the run manifest. */
int
RunCrosscheck(const Options& opts, io::Vfs& vfs)
{
    const std::string manifest_path =
        opts.manifest.empty() ? opts.path + ".run.json" : opts.manifest;
    util::StatusOr<cpu::EventCounters> actual =
        analysis::ReadCountersFromManifest(manifest_path, vfs);
    if (!actual.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     actual.status().ToString().c_str());
        return util::ExitCodeFor(actual.status());
    }
    util::StatusOr<std::vector<trace::Record>> loaded =
        trace::LoadTrace(opts.path, vfs);
    if (!loaded.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     loaded.status().ToString().c_str());
        return util::ExitCodeFor(loaded.status());
    }
    analysis::CrosscheckOptions cc_opts;
    cc_opts.prefix = opts.prefix;
    const analysis::CrosscheckReport report =
        analysis::Crosscheck(*loaded, *actual, cc_opts);
    std::printf("%s", report.ToString().c_str());
    return report.passed() ? util::kExitOk : util::kExitCorrupt;
}

/** `--verify` / `--salvage`: tolerant scan, report, optional rewrite. */
int
RunSalvage(const Options& opts, io::Vfs& vfs)
{
    auto source = trace::FileByteSource::Open(opts.path, vfs);
    if (!source.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     source.status().ToString().c_str());
        return util::ExitCodeFor(source.status());
    }
    std::vector<trace::Record> records;
    const trace::ScanReport report = trace::ScanTrace(
        **source, opts.salvage_out.empty() ? nullptr : &records);
    std::printf("%s", report.ToString().c_str());

    if (!report.recognized)
        return util::kExitCorrupt;

    if (!opts.salvage_out.empty()) {
        auto out = trace::FileByteSink::Open(opts.salvage_out, vfs);
        if (!out.ok()) {
            std::fprintf(stderr, "atum-report: %s\n",
                         out.status().ToString().c_str());
            return util::ExitCodeFor(out.status());
        }
        util::Status status = trace::WriteAtf2(**out, records);
        if (status.ok())
            status = (*out)->Close();
        if (!status.ok()) {
            std::fprintf(stderr, "atum-report: salvage write failed: %s\n",
                         status.ToString().c_str());
            return util::ExitCodeFor(status);
        }
        std::printf("salvaged %zu records -> %s\n", records.size(),
                    opts.salvage_out.c_str());
        return util::kExitOk;
    }
    return report.intact() ? util::kExitOk : util::kExitCorrupt;
}

int
Run(const Options& opts, io::Vfs& vfs)
{
    if (opts.verify || !opts.salvage_out.empty())
        return RunSalvage(opts, vfs);
    if (opts.crosscheck)
        return RunCrosscheck(opts, vfs);

    const auto load_start = std::chrono::steady_clock::now();
    ATUM_SPAN_NAMED(load_span, "report", "load");
    load_span.set_detail(opts.path);
    util::StatusOr<std::vector<trace::Record>> loaded =
        trace::LoadTrace(opts.path, vfs);
    load_span.Close();
    if (!loaded.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     loaded.status().ToString().c_str());
        return util::ExitCodeFor(loaded.status());
    }
    const std::vector<trace::Record>& records = *loaded;
    auto& reg = obs::Registry::Global();
    reg.GetCounter("report.records").Set(records.size());
    reg.GetHistogram("report.load_us")
        .Add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - load_start)
                .count()));

    if (opts.head > 0) {
        for (size_t i = 0; i < opts.head && i < records.size(); ++i) {
            const trace::Record& r = records[i];
            std::printf("%8zu  %-7s %c 0x%08x size=%u info=%u\n", i,
                        TypeName(r.type), r.kernel() ? 'K' : 'U', r.addr,
                        r.size(), r.info);
        }
        std::printf("\n");
    }

    trace::TraceStats stats;
    {
        ATUM_SPAN("report", "characterize");
        for (const auto& r : records)
            stats.Accumulate(r);
    }
    std::printf("%s\n", stats.ToString().c_str());

    if (opts.have_cache) {
        ATUM_SPAN("report", "cache");
        const replay::SweepResult r = replay::ReplayOne(
            records,
            replay::MakeCacheJob(opts.cache_config, opts.driver_options));
        if (!r.status.ok())
            Fatal(r.status.message());
        // Name a fully associative cache by its way count, as Cache does.
        cache::CacheConfig named = opts.cache_config;
        if (named.assoc == 0)
            named.assoc = named.size_bytes / named.block_bytes;
        std::printf("cache %s: accesses=%llu miss-rate=%.3f%% "
                    "writebacks=%llu\n",
                    named.ToString().c_str(),
                    static_cast<unsigned long long>(r.cache_stats.accesses),
                    100.0 * r.cache_stats.MissRate(),
                    static_cast<unsigned long long>(r.cache_stats.writebacks));
    }

    if (!opts.sweep_configs.empty()) {
        std::vector<replay::SweepConfig> jobs;
        for (const cache::CacheConfig& config : opts.sweep_configs)
            jobs.push_back(
                replay::MakeCacheJob(config, opts.driver_options));
        const replay::SweepRunner runner(opts.jobs);
        const std::vector<replay::SweepResult> results =
            runner.Run(records, jobs);
        std::printf("sweep: %zu configs\n", results.size());
        Table table({"cache", "accesses", "miss%", "writebacks", "status"});
        for (const replay::SweepResult& r : results) {
            table.AddRow({
                r.label,
                std::to_string(r.cache_stats.accesses),
                Table::Fmt(100.0 * r.cache_stats.MissRate(), 3),
                std::to_string(r.cache_stats.writebacks),
                r.status.ok() ? "ok" : r.status.ToString(),
            });
        }
        std::printf("%s\n", table.ToString().c_str());
    }

    if (opts.tlb_entries > 0) {
        ATUM_SPAN("report", "tlb");
        tlbsim::TlbSim sim({.entries = opts.tlb_entries});
        for (const auto& r : records)
            sim.Feed(r);
        std::printf("tlb %u entries: accesses=%llu miss-rate=%.3f%%\n",
                    opts.tlb_entries,
                    static_cast<unsigned long long>(sim.stats().accesses),
                    100.0 * sim.stats().MissRate());
    }

    if (opts.working_sets) {
        ATUM_SPAN("report", "working-sets");
        analysis::WorkingSetAnalyzer ws({100, 1000, 10000, 100000});
        for (const auto& r : records)
            ws.Feed(r);
        Table table({"window(refs)", "avg-ws(pages)"});
        for (size_t i = 0; i < ws.windows().size(); ++i) {
            table.AddRow({std::to_string(ws.windows()[i]),
                          Table::Fmt(ws.AverageWorkingSet(i), 1)});
        }
        std::printf("%s", table.ToString().c_str());
        std::printf("distinct pages: %llu\n\n",
                    static_cast<unsigned long long>(ws.distinct_pages()));
    }

    if (opts.stack_distance) {
        ATUM_SPAN("report", "stack-distance");
        analysis::StackDistanceAnalyzer sd(4);
        for (const auto& r : records)
            sd.Feed(r);
        Table table({"fully-assoc LRU", "miss-rate%"});
        for (uint32_t kib : {1u, 4u, 16u, 64u, 256u}) {
            table.AddRow({std::to_string(kib) + "K",
                          Table::Fmt(100.0 * sd.MissRateForCapacity(
                                                 (kib << 10) >> 4),
                                     3)});
        }
        std::printf("%s\n", table.ToString().c_str());

        // Per-process locality, one worker per process substream.
        analysis::ProcessProfileOptions profile_opts;
        profile_opts.include_kernel = opts.driver_options.include_kernel;
        const auto profiles = analysis::PerProcessStackProfiles(
            records, profile_opts, opts.jobs);
        Table per_pid({"pid", "refs", "blocks", "1K-miss%", "16K-miss%"});
        for (const analysis::ProcessProfile& p : profiles) {
            per_pid.AddRow({
                p.pid == 0 ? "kernel" : std::to_string(p.pid),
                std::to_string(p.accesses),
                std::to_string(p.distinct_blocks),
                Table::Fmt(100.0 * p.MissRateAt(0), 3),
                Table::Fmt(100.0 * p.MissRateAt(1), 3),
            });
        }
        std::printf("%s\n", per_pid.ToString().c_str());
    }

    if (opts.stats)
        std::printf("%s",
                    obs::Registry::Global().Snapshot().ToText().c_str());
    return 0;
}

/** Runs the report, then exports its span trace if --spans asked. */
int
RunAndExport(const Options& opts, io::Vfs& vfs)
{
    const int code = Run(opts, vfs);
    if (!opts.spans_out.empty()) {
        const util::Status status =
            obs::WriteSpansFile(opts.spans_out, "atum-report", vfs);
        if (status.ok())
            std::printf("spans %s\n", opts.spans_out.c_str());
        else
            Warn("writing span trace: ", status.ToString());
    }
    return code;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    // Reports are made to be piped (`atum-report t.atum | head`): ignore
    // SIGPIPE and treat a broken pipe at exit as success.
    atum::util::IgnoreSigpipe();
    return atum::util::FinishStdout(
        atum::RunAndExport(atum::ParseArgs(argc, argv),
                           atum::io::RealVfs()));
}
