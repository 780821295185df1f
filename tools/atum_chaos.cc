// atum-chaos: seeded crash campaigns against the capture stack, with a
// no-silent-loss verdict.
//
// Usage:
//   atum-chaos --campaign powercut,enospc,torn-rename [--seeds N]
//              [--first-seed S] [shape flags] [--out-dir DIR]
//              [--no-minimize] [--verbose]
//   atum-chaos --serve --campaign ... [--jobs N] [--tenants N]
//              [--sweeps [N]] [--sweep-configs N] [... as above]
//   atum-chaos --net [--campaign net-flaky,net-cut,...] [--submits N]
//              [--tenants N] [--attempts N] [... as above]
//   atum-chaos --fuzz-protocol [--seeds N] [--first-seed S]
//   atum-chaos --replay FILE [--serve|--net] [shape flags]
//   atum-chaos --probe [--serve|--net] [--first-seed S] [shape flags]
//   atum-chaos --version
//
// Shape flags (every family): --workload NAME --scale N
//   --max-instructions N --buffer-kb N --chunk-records N
//   --checkpoint-every FILLS --checkpoint-keep K
//
// One driver runs three drill families (chaos::DrillFamily, docs/CHAOS.md).
// Each seed rolls a deterministic fault schedule, runs one complete
// disaster drill inside in-memory disks and wires, recovers the way an
// operator would, and checks that family's invariants. The flags fill one
// chaos::DrillSpec; a shape flag overrides the family's default.
//
//   (default) capture — a supervised capture under ENOSPC bursts, torn
//     renames, bit-flips and power cuts, recovered by resuming from the
//     newest loadable checkpoint or salvaging the trace. Checks I1
//     accounting, I2 durable checkpoint, I3 prefix consistency.
//
//   --serve — the whole atum-serve daemon: each seed scripts a multi-
//     tenant mix of submits, runs and a cancel (--jobs, --tenants) into a
//     drill-mode ServeCore, kills it when the schedule's power cut fires,
//     restarts it on the crash-consistent disk and checks S1 no lost job,
//     S2 no double-run, S3 journal and traces clean (docs/SERVE.md).
//     --sweeps adds seed-scripted replay sweeps (some with a deliberately
//     invalid config) so the kill can land mid-sweep, and the battery
//     also enforces S4 (no journaled row lost or altered) and S5 (the
//     recovered sweep is bit-identical to a clean run). With --sweeps the
//     captures are lightened (2 jobs, 2000 instructions, 8 KiB buffer)
//     unless shaped explicitly, and with no --campaign the mix defaults
//     to powercut,enospc,torn-rename.
//
//   --net — the daemon's wire: a multi-tenant client delivers --submits
//     tokened submits over a hostile connection (short/failed sends, mid-
//     frame disconnects, bit flips, stalls, duplicated retries, SIGKILL-
//     restarts), retrying ambiguous outcomes up to --attempts times, and
//     the battery checks N1 no double-run, N2 no crash or wedge, N3 every
//     ack for one token names the same job (docs/SERVE.md "Network
//     failure model"). With no --campaign the mix defaults to all six net
//     fault mixes.
//
// --jobs, --sweeps and --sweep-configs need --serve; --submits and
// --attempts need --net (--jobs and --submits set the same spec field).
//
// --fuzz-protocol skips the drill machinery and feeds --seeds seeded
// mutations of framed traffic (bit flips, truncations, tampered length
// prefixes, splices, raw noise) straight through FrameParser and the
// request codec, checking the codec contract: bounded buffering,
// bounded stepping, structured rejections, and accepted requests that
// survive their own round trip.
//
// A failing seed's schedule is minimized (unless --no-minimize) and, with
// --out-dir, written as DIR/failing-seed-N.schedule (failing-serve-seed-N,
// failing-net-seed-N for the daemon drills); such a file replays the
// identical failure forever via --replay and belongs in
// tests/chaos_corpus/ as a regression test.
//
// Exit codes follow the shared contract in util/status.h:
//   0  every seed upheld every invariant
//   1  at least one invariant violation (schedules reported/written)
//   2  usage error
//   3  I/O failure (replay file unreadable, --out-dir unwritable)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "io/chaos.h"
#include "obs/flight.h"
#include "util/build_info.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/status.h"

namespace atum {
namespace {

template <typename... Args>
[[noreturn]] void
UsageError(Args&&... args)
{
    std::fprintf(stderr, "atum-chaos: %s\n",
                 internal::StrCat(std::forward<Args>(args)...).c_str());
    std::exit(util::kExitUsage);
}

struct Options {
    uint64_t seeds = 50;
    uint64_t first_seed = 1;
    std::string replay;   // schedule file to replay instead of a campaign
    std::string out_dir;  // where failing schedules are written
    bool probe = false;   // print the fault-free op counts and exit
    bool fuzz = false;    // fuzz the frame/request codec, no drill
    bool minimize = true;
    bool verbose = false;

    chaos::DrillSpec spec;
};

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    bool serve = false;
    bool net = false;
    uint32_t sweeps = 0;
    std::string serve_flag;  // first --serve-only flag seen
    std::string net_flag;    // first --net-only flag seen
    // Shape flags may precede --serve/--net, whose defaults they
    // override, so they are applied once the family is known.
    std::vector<std::function<void(chaos::DrillSpec&)>> shape;
    std::vector<std::string> campaigns;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                UsageError(arg, " requires a value");
            return argv[++i];
        };
        auto next_uint = [&](uint64_t max = UINT64_MAX) {
            return util::FlagUint("atum-chaos", arg, next(), 10, max);
        };
        auto next_u32 = [&] {
            return static_cast<uint32_t>(next_uint(UINT32_MAX));
        };
        if (arg == "--campaign")
            campaigns = util::SplitCommas(next());
        else if (arg == "--seeds")
            opts.seeds = next_uint();
        else if (arg == "--first-seed")
            opts.first_seed = next_uint();
        else if (arg == "--replay")
            opts.replay = next();
        else if (arg == "--probe")
            opts.probe = true;
        else if (arg == "--serve")
            serve = true;
        else if (arg == "--net")
            net = true;
        else if (arg == "--fuzz-protocol")
            opts.fuzz = true;
        else if (arg == "--jobs" || arg == "--submits") {
            const uint32_t v = next_u32();
            shape.push_back([v](chaos::DrillSpec& s) { s.jobs = v; });
            (arg == "--jobs" ? serve_flag : net_flag) = arg;
        } else if (arg == "--attempts") {
            const uint32_t v = next_u32();
            shape.push_back([v](chaos::DrillSpec& s) { s.max_attempts = v; });
            net_flag = arg;
        } else if (arg == "--tenants") {
            const uint32_t v = next_u32();
            shape.push_back([v](chaos::DrillSpec& s) { s.tenants = v; });
        } else if (arg == "--sweeps") {
            // Bare --sweeps enables the default sweep mix; a following
            // number sets how many sweeps each drill submits.
            sweeps = 2;
            if (i + 1 < argc) {
                if (const std::optional<uint64_t> v =
                        util::ParseUint(argv[i + 1], 10, UINT32_MAX)) {
                    sweeps = static_cast<uint32_t>(*v);
                    ++i;
                }
            }
            serve_flag = arg;
        } else if (arg == "--sweep-configs") {
            const uint32_t v = next_u32();
            shape.push_back([v](chaos::DrillSpec& s) { s.sweep_configs = v; });
            serve_flag = arg;
        } else if (arg == "--out-dir")
            opts.out_dir = next();
        else if (arg == "--no-minimize")
            opts.minimize = false;
        else if (arg == "--verbose")
            opts.verbose = true;
        else if (arg == "--workload") {
            const std::string v = next();
            shape.push_back([v](chaos::DrillSpec& s) { s.workload = v; });
        } else if (arg == "--scale") {
            const uint32_t v = next_u32();
            shape.push_back([v](chaos::DrillSpec& s) { s.scale = v; });
        } else if (arg == "--max-instructions") {
            const uint64_t v = next_uint();
            shape.push_back(
                [v](chaos::DrillSpec& s) { s.max_instructions = v; });
        } else if (arg == "--buffer-kb") {
            const uint32_t v = next_u32() << 10;
            shape.push_back([v](chaos::DrillSpec& s) { s.buffer_bytes = v; });
        } else if (arg == "--chunk-records") {
            const uint32_t v = next_u32();
            shape.push_back([v](chaos::DrillSpec& s) { s.chunk_records = v; });
        } else if (arg == "--checkpoint-every") {
            const uint64_t v = next_uint();
            shape.push_back(
                [v](chaos::DrillSpec& s) { s.checkpoint_every_fills = v; });
        } else if (arg == "--checkpoint-keep") {
            const uint32_t v = next_u32();
            shape.push_back(
                [v](chaos::DrillSpec& s) { s.keep_checkpoints = v; });
        } else if (arg == "--version") {
            std::printf("%s\n", util::VersionString("atum-chaos").c_str());
            std::exit(util::kExitOk);
        } else {
            UsageError("unknown argument: ", arg,
                       " (see the header of tools/atum_chaos.cc)");
        }
    }
    if (serve && net)
        UsageError("--serve and --net are mutually exclusive");
    if (!serve_flag.empty() && !serve)
        UsageError(serve_flag, " requires --serve");
    if (!net_flag.empty() && !net)
        UsageError(net_flag, " requires --net");

    opts.spec = chaos::DrillSpec(serve ? chaos::DrillFamily::kServe
                                 : net ? chaos::DrillFamily::kNet
                                       : chaos::DrillFamily::kCapture);
    opts.spec.sweeps = sweeps;
    if (sweeps > 0) {
        // Sweep drills want the kill to have a real chance of landing
        // mid-sweep; the classic capture shape buries the sweep phase
        // under thousands of capture I/O ops. Lighten the captures
        // unless the caller shaped them explicitly (applied below).
        opts.spec.jobs = 2;
        opts.spec.max_instructions = 2000;
        opts.spec.buffer_bytes = 8u << 10;
    }
    for (const auto& apply : shape)
        apply(opts.spec);

    opts.spec.campaigns = campaigns;
    if (opts.replay.empty() && campaigns.empty() && !opts.probe &&
        !opts.fuzz) {
        // Bare --serve --sweeps and bare --net work out of the box with
        // their natural mixes; everything else still requires an
        // explicit mode.
        if (sweeps > 0)
            opts.spec.campaigns = {"powercut", "enospc", "torn-rename"};
        else if (net)
            opts.spec.campaigns = {"net-flaky", "net-cut",   "net-flip",
                                   "net-stall", "net-dup", "net-kill"};
        else
            UsageError("--campaign, --replay, --probe or "
                       "--fuzz-protocol is required");
    }
    if (!opts.replay.empty() && !campaigns.empty())
        UsageError("--campaign and --replay are mutually exclusive");
    if (opts.seeds == 0)
        UsageError("--seeds must be at least 1");
    return opts;
}

/** Exits with the I/O code when the host filesystem fails us. */
template <typename... Args>
[[noreturn]] void
IoFatal(Args&&... args)
{
    std::fprintf(stderr, "atum-chaos: %s\n",
                 internal::StrCat(std::forward<Args>(args)...).c_str());
    std::exit(util::kExitIo);
}

std::string
ReadFileOrDie(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        IoFatal("cannot open ", path);
    std::ostringstream body;
    body << in.rdbuf();
    if (in.bad())
        IoFatal("cannot read ", path);
    return body.str();
}

void
WriteFileOrDie(const std::string& path, const std::string& body)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
    out.flush();
    if (!out)
        IoFatal("cannot write ", path);
}

/** The family's word in campaign lines and repro file names; the
 *  capture drill, the original, goes unnamed. */
std::string
FamilyTag(chaos::DrillFamily family)
{
    switch (family) {
      case chaos::DrillFamily::kServe:
        return "serve";
      case chaos::DrillFamily::kNet:
        return "net";
      case chaos::DrillFamily::kCapture:
        break;
    }
    return "";
}

/**
 * Minimizes (optionally) and reports one failing seed; writes the repro
 * schedule under --out-dir when given.
 */
void
ReportFailure(const Options& opts, const chaos::SeedResult& failure)
{
    io::ChaosSchedule repro = failure.schedule;
    if (opts.minimize) {
        util::StatusOr<io::ChaosSchedule> minimized =
            chaos::Minimize(opts.spec, failure.schedule);
        if (minimized.ok())
            repro = *minimized;
        else
            std::fprintf(stderr, "atum-chaos: minimize failed: %s\n",
                         minimized.status().ToString().c_str());
    }
    std::fprintf(stderr, "FAIL %s\n", failure.Summary().c_str());
    obs::flight::Note("chaos.seed-failure", failure.Summary().c_str(),
                      failure.seed, 0);
    if (!opts.out_dir.empty()) {
        const std::string tag = FamilyTag(opts.spec.family);
        const std::string path = opts.out_dir + "/failing-" +
                                 (tag.empty() ? "" : tag + "-") + "seed-" +
                                 std::to_string(failure.seed) + ".schedule";
        WriteFileOrDie(path, repro.Serialize());
        std::fprintf(stderr, "  repro written to %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "  repro schedule:\n%s",
                     repro.Serialize().c_str());
    }
}

/** Prints the fault-free op counts schedules aim into (for authoring). */
int
RunProbe(const Options& opts)
{
    util::StatusOr<io::OpCounts> probe =
        chaos::ProbeOpCounts(opts.spec, opts.first_seed);
    if (!probe.ok())
        IoFatal("probe failed: ", probe.status().ToString());
    std::printf("writes %llu\nsyncs %llu\nreads %llu\nrenames %llu\n"
                "unlinks %llu\ndirsyncs %llu\n"
                "sends %llu\nrecvs %llu\nrequests %llu\n",
                static_cast<unsigned long long>(probe->writes),
                static_cast<unsigned long long>(probe->syncs),
                static_cast<unsigned long long>(probe->reads),
                static_cast<unsigned long long>(probe->renames),
                static_cast<unsigned long long>(probe->unlinks),
                static_cast<unsigned long long>(probe->dirsyncs),
                static_cast<unsigned long long>(probe->sends),
                static_cast<unsigned long long>(probe->recvs),
                static_cast<unsigned long long>(probe->requests));
    return util::kExitOk;
}

int
RunReplay(Options& opts)
{
    util::StatusOr<io::ChaosSchedule> schedule =
        io::ChaosSchedule::Parse(ReadFileOrDie(opts.replay));
    if (!schedule.ok())
        IoFatal(opts.replay, ": ", schedule.status().ToString());
    if (opts.spec.campaigns.empty())
        opts.spec.campaigns = schedule->campaigns;

    util::StatusOr<chaos::SeedResult> result =
        chaos::ReplaySchedule(opts.spec, *schedule);
    if (!result.ok())
        IoFatal("replay failed to run: ", result.status().ToString());

    std::printf("%s\n", result->Summary().c_str());
    if (result->ok())
        return util::kExitOk;
    ReportFailure(opts, *result);
    return util::kExitError;
}

/** The protocol codec fuzzer (--fuzz-protocol): --seeds is the input
 *  count, --first-seed picks the deterministic mutation stream. */
int
RunFuzz(const Options& opts)
{
    const chaos::FuzzReport report =
        chaos::FuzzProtocol(opts.first_seed, opts.seeds);
    std::printf("%s\n", report.Summary().c_str());
    return report.ok() ? util::kExitOk : util::kExitError;
}

int
RunSeeds(const Options& opts)
{
    uint64_t done = 0;
    const auto on_seed = [&](const chaos::SeedResult& r) {
        ++done;
        if (opts.verbose || !r.ok())
            std::printf("%s\n", r.Summary().c_str());
        else if (done % 50 == 0)
            std::printf("... %llu/%llu seeds\n",
                        static_cast<unsigned long long>(done),
                        static_cast<unsigned long long>(opts.seeds));
    };

    const std::string tag = FamilyTag(opts.spec.family);
    const std::string label = tag.empty() ? "campaign" : tag + " campaign";
    util::StatusOr<chaos::CampaignResult> result =
        chaos::RunCampaign(opts.spec, opts.first_seed, opts.seeds, on_seed);
    if (!result.ok())
        IoFatal(label, " failed to run: ", result.status().ToString());

    const auto u = [](uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    if (opts.spec.family == chaos::DrillFamily::kNet) {
        std::printf("%s: %llu seeds, %llu faults fired, %llu kills, "
                    "%llu acks (%llu dedup), %llu retries, %zu failing\n",
                    label.c_str(), u(result->seeds_run),
                    u(result->faults_fired), u(result->kills),
                    u(result->acks), u(result->dup_acks),
                    u(result->retries), result->failures.size());
    } else {
        std::printf("%s: %llu seeds, %llu faults fired, %llu power cuts, "
                    "%llu resumes, %llu salvages, %zu failing\n",
                    label.c_str(), u(result->seeds_run),
                    u(result->faults_fired), u(result->power_cuts),
                    u(result->resumes), u(result->salvages),
                    result->failures.size());
    }
    if (opts.spec.sweeps > 0)
        std::printf("  sweeps: %llu acked, %llu rows complete, "
                    "%llu partial-journal resumes\n",
                    u(result->sweeps_acked), u(result->sweep_rows),
                    u(result->sweep_partial_resumes));

    for (const chaos::SeedResult& failure : result->failures)
        ReportFailure(opts, failure);
    if (!result->ok() && obs::flight::Armed() &&
        obs::flight::DumpNow("campaign-failure"))
        std::fprintf(stderr, "  flight recorder: %s/chaos.flight.json\n",
                     opts.out_dir.c_str());
    return result->ok() ? util::kExitOk : util::kExitError;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    atum::Options opts = atum::ParseArgs(argc, argv);
    if (!opts.out_dir.empty()) {
        // Failing seeds leave a post-mortem alongside the repro
        // schedules; without --out-dir there is nowhere durable to put
        // one, so the recorder stays disarmed.
        const std::string flight_path =
            opts.out_dir + "/chaos.flight.json";
        atum::obs::flight::SetDumpPath(flight_path.c_str());
        atum::obs::flight::InstallCrashHandler();
    }
    if (opts.fuzz)
        return atum::RunFuzz(opts);
    if (opts.probe)
        return atum::RunProbe(opts);
    if (!opts.replay.empty())
        return atum::RunReplay(opts);
    return atum::RunSeeds(opts);
}
