// Golden per-guest trace digests: for every registered workload at scale
// 1, the record count, the CRC32C of the packed record stream, the final
// micro-cycle count and all ten hardware event counters. Retired
// instructions alone (workloads_test's GoldenInstructionCounts) would not
// notice a rewrite that drops a PTE record or reorders an ifetch; these
// digests do. The same digest must come out of a capture split in two by
// a checkpoint-resume, so a resumed capture is held to the same contract.
//
// The table was generated before the CRC32C and scanner fast paths
// existed; it changes only when the guest semantics change on purpose.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/atum_tracer.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "io/mem_vfs.h"
#include "kernel/boot.h"
#include "trace/container.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "util/crc32.h"
#include "workloads/workloads.h"

namespace atum {
namespace {

constexpr uint64_t kBudget = 30'000'000;

cpu::Machine::Config
SmallMachine()
{
    cpu::Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 3000;
    return config;
}

core::AtumConfig
SmallBuffer()
{
    core::AtumConfig config;
    config.buffer_bytes = 16u << 10;  // several fills per guest
    return config;
}

/** One line: records, stream CRC, ucycles and the ten event counters. */
std::string
Digest(const std::vector<trace::Record>& records, const cpu::Machine& machine)
{
    uint32_t crc = 0;
    for (const trace::Record& r : records) {
        uint8_t packed[trace::kRecordBytes];
        trace::PackRecord(r, packed);
        crc = util::Crc32cExtend(crc, packed, sizeof packed);
    }
    const cpu::EventCounters& ev = machine.event_counters();
    std::ostringstream out;
    out << "records=" << records.size() << " crc=" << std::hex << crc
        << std::dec << " ucycles=" << machine.ucycles()
        << " ev=" << ev.instructions << ',' << ev.ifetches << ',' << ev.reads
        << ',' << ev.writes << ',' << ev.pte_reads << ',' << ev.tlb_misses
        << ',' << ev.tlb_fills << ',' << ev.exceptions << ',' << ev.syscalls
        << ',' << ev.dma_bytes;
    return out.str();
}

/** One uninterrupted capture straight into memory. */
std::string
FreshDigest(const std::string& workload)
{
    cpu::Machine machine(SmallMachine());
    trace::VectorSink sink;
    core::AtumTracer tracer(machine, sink, SmallBuffer());
    kernel::BootSystem(machine, {workloads::MakeWorkload(workload)});
    const core::SessionResult result =
        core::RunTraced(machine, tracer, kBudget);
    EXPECT_TRUE(result.halted) << workload;
    return Digest(sink.records(), machine);
}

/**
 * The same capture through the capture stack on an in-memory filesystem:
 * stopped after `split` instructions with a checkpoint per buffer fill,
 * abandoned unsealed, resumed from its newest checkpoint, run to HALT,
 * sealed, and read back from the ATF2 file.
 */
std::string
SplitDigest(const std::string& workload, uint64_t split)
{
    io::MemVfs vfs;
    const std::string path = "/t/" + workload + ".atum";
    const std::string base = "/t/" + workload;
    std::string checkpoint;
    {
        auto capture = core::Capture::Start(
            path, SmallMachine(), SmallBuffer(),
            trace::Atf2WriterOptions{}.chunk_records, vfs);
        EXPECT_TRUE(capture.ok()) << capture.status().ToString();
        if (!capture.ok())
            return "";
        kernel::BootSystem((*capture)->machine(),
                           {workloads::MakeWorkload(workload)});
        core::CheckpointRotator rotator(base, 2, 1, vfs);
        core::SupervisorOptions sup;
        sup.max_instructions = split;
        sup.checkpoints = &rotator;
        sup.checkpoint_every_fills = 1;
        sup.file_sink = &(*capture)->sink();
        const core::SessionResult result = core::RunSupervised(
            (*capture)->machine(), (*capture)->tracer(), sup);
        EXPECT_EQ(result.stop_cause, core::StopCause::kInstrLimit)
            << workload;
        EXPECT_TRUE(result.checkpoint_status.ok()) << workload;
        checkpoint = result.last_checkpoint;
    }
    {
        auto capture = core::Capture::Resume(checkpoint, "", vfs);
        EXPECT_TRUE(capture.ok()) << capture.status().ToString();
        if (!capture.ok())
            return "";
        core::SupervisorOptions sup;
        sup.max_instructions = kBudget;
        const core::SessionResult result = core::RunSupervised(
            (*capture)->machine(), (*capture)->tracer(), sup);
        EXPECT_EQ(result.stop_cause, core::StopCause::kHalted) << workload;
        EXPECT_TRUE((*capture)->sink().Close().ok()) << workload;
        util::StatusOr<std::vector<trace::Record>> records =
            trace::LoadTrace(path, vfs);
        EXPECT_TRUE(records.ok()) << records.status().ToString();
        if (!records.ok())
            return "";
        return Digest(*records, (*capture)->machine());
    }
}

struct Golden {
    const char* workload;
    uint64_t instructions;  ///< retired; the split capture stops at half
    const char* digest;
};

const Golden kGolden[] = {
    {"matrix", 69485,
     "records=86246 crc=e2ce73db ucycles=10361151 "
     "ev=69485,74466,9102,2327,148,148,142,31,2,0"},
    {"sort", 144255,
     "records=160188 crc=6db6e0e9 ucycles=18882207 "
     "ev=144255,133653,14738,11277,208,208,203,55,2,0"},
    {"listproc", 121222,
     "records=146998 crc=fa8a0a16 ucycles=17085814 "
     "ev=121222,103365,30277,12598,334,334,327,49,2,0"},
    {"grep", 194860,
     "records=276092 crc=e43175b7 ucycles=32263040 "
     "ev=194860,211349,51604,12400,296,296,280,82,2,0"},
    {"hash", 119943,
     "records=172941 crc=fec63670 ucycles=20175143 "
     "ev=119943,120735,26923,22425,1367,1367,1324,84,2,0"},
    {"fft", 50266,
     "records=63014 crc=e8af3ad4 ucycles=7337661 "
     "ev=50266,51359,5248,6184,92,92,88,22,2,0"},
    {"editor", 15279,
     "records=56986 crc=3a289389 ucycles=6542046 "
     "ev=15279,22056,26048,8785,40,40,36,11,2,0"},
    {"queuesim", 17128,
     "records=31935 crc=7509e9d4 ucycles=3664845 "
     "ev=17128,19573,4347,7737,123,123,104,26,2,0"},
    {"server", 21079,
     "records=47912 crc=5007f7c3 ucycles=5544516 "
     "ev=21079,27889,10292,8640,50,50,50,946,939,0"},
    {"iostorm", 28467,
     "records=53025 crc=98fbbe82 ucycles=6206371 "
     "ev=28467,45005,1370,1337,45,45,43,93,42,20480"},
    {"forkwave", 19791,
     "records=34530 crc=6b25cb44 ucycles=4013801 "
     "ev=19791,29980,1507,2832,62,62,62,56,50,0"},
    {"tlbthrash", 64971,
     "records=107767 crc=54eff2a0 ucycles=12466563 "
     "ev=64971,67905,6660,28657,2154,2154,1962,215,2,0"},
    {"smc", 4367,
     "records=7512 crc=75caec5e ucycles=817141 "
     "ev=4367,5990,491,991,17,17,16,4,2,0"},
};

TEST(TraceDigest, EveryWorkloadHasAGoldenDigest)
{
    std::vector<std::string> names;
    for (const Golden& g : kGolden)
        names.push_back(g.workload);
    EXPECT_EQ(names, workloads::AllWorkloadNames());
}

TEST(TraceDigest, FreshCaptureMatchesGolden)
{
    for (const Golden& g : kGolden)
        EXPECT_EQ(FreshDigest(g.workload), g.digest) << g.workload;
}

TEST(TraceDigest, CheckpointResumedCaptureMatchesGolden)
{
    for (const Golden& g : kGolden)
        EXPECT_EQ(SplitDigest(g.workload, g.instructions / 2), g.digest)
            << g.workload;
}

}  // namespace
}  // namespace atum
