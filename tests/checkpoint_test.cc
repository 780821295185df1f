// Checkpoint/resume and supervised-capture tests: state serialization
// round-trips, the determinism property (restore + N steps == never
// stopped), crash-equivalent trace continuation at the byte level, a
// corruption matrix over the ATCK frame, and the supervisor's watchdog /
// deadline / signal stop paths.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/atum_tracer.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "io/mem_vfs.h"
#include "kernel/boot.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "util/crc32.h"
#include "util/serialize.h"
#include "workloads/workloads.h"

namespace atum {
namespace {

using core::AtumConfig;
using core::AtumTracer;
using core::Capture;
using core::Checkpoint;
using core::CheckpointMeta;
using core::CheckpointRotator;
using core::StopCause;
using core::SupervisorOptions;
using cpu::Machine;
using trace::MemoryByteSink;
using trace::MemoryByteSource;

Machine::Config
MixConfig()
{
    Machine::Config config;
    config.mem_bytes = 2u << 20;
    config.timer_reload = 2000;
    return config;
}

AtumConfig
SmallBufferConfig()
{
    AtumConfig config;
    config.buffer_bytes = 16u << 10;  // fills often → frequent checkpoints
    return config;
}

std::string
TempPath(const std::string& name)
{
    const char* dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::vector<uint8_t>
ReadAllBytes(const std::string& path)
{
    std::vector<uint8_t> bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

// ---------------------------------------------------------------------------
// StateWriter / StateReader.

TEST(Serialize, RoundTripsScalarsAndBlobs)
{
    util::StateWriter w;
    w.U8(0xAB);
    w.U16(0xBEEF);
    w.U32(0xDEADBEEF);
    w.U64(0x0123456789ABCDEFull);
    w.Bool(true);
    w.Str("atum");
    const uint8_t raw[3] = {1, 2, 3};
    w.Bytes(raw, sizeof raw);

    util::StateReader r(w.bytes());
    EXPECT_EQ(r.U8(), 0xAB);
    EXPECT_EQ(r.U16(), 0xBEEF);
    EXPECT_EQ(r.U32(), 0xDEADBEEFu);
    EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(r.Bool());
    EXPECT_EQ(r.Str(), "atum");
    uint8_t got[3] = {};
    r.Bytes(got, sizeof got);
    EXPECT_EQ(got[2], 3);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, OverrunLatchesAndZeroFills)
{
    util::StateWriter w;
    w.U16(7);
    util::StateReader r(w.bytes());
    EXPECT_EQ(r.U32(), 0u);  // needs 4 bytes, only 2 exist
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
    EXPECT_EQ(r.U64(), 0u);  // latched: everything after reads zero
    EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// The determinism property: checkpoint mid-run, restore into a fresh
// machine, and both must step identically — same architectural state,
// same record stream — for thousands of instructions.

TEST(CheckpointDeterminism, RestoredMachineReplaysIdentically)
{
    const Machine::Config mconfig = MixConfig();
    const AtumConfig tconfig = SmallBufferConfig();

    Machine machine(mconfig);
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, tconfig);
    kernel::BootSystem(machine, workloads::StandardMix(1));
    tracer.Attach();

    // Run into the middle of the workload (mid-boot wash is over, all
    // processes alive) and checkpoint at an instruction boundary.
    machine.Run(150'000);
    ASSERT_FALSE(machine.halted());

    CheckpointMeta meta;
    meta.machine_config = mconfig;
    meta.tracer_config = tconfig;
    MemoryByteSink ckpt_bytes;
    ASSERT_TRUE(
        core::WriteCheckpoint(ckpt_bytes, meta, machine, tracer, nullptr)
            .ok());

    MemoryByteSource source(ckpt_bytes.bytes());
    util::StatusOr<Checkpoint> ckpt = Checkpoint::Read(source);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();

    Machine restored(ckpt->meta().machine_config);
    trace::VectorSink restored_sink;
    AtumTracer restored_tracer(restored, restored_sink,
                               ckpt->meta().tracer_config);
    ASSERT_TRUE(ckpt->RestoreMachine(restored).ok());
    ASSERT_TRUE(ckpt->RestoreTracer(restored_tracer).ok());
    restored_tracer.Attach();

    const size_t records_at_ckpt = sink.records().size();

    // March both machines forward and compare their *entire* serialized
    // state at intervals — registers, memory, TB, prefetch buffer, timer.
    for (int leg = 0; leg < 5; ++leg) {
        for (int step = 0; step < 2000; ++step) {
            machine.StepOne();
            restored.StepOne();
        }
        util::StateWriter a, b;
        ASSERT_TRUE(machine.Save(a).ok());
        ASSERT_TRUE(restored.Save(b).ok());
        ASSERT_EQ(a.bytes(), b.bytes()) << "state diverged by leg " << leg;
    }

    // The record streams must agree too: what the original captured after
    // the checkpoint equals what the restored capture produced from zero.
    tracer.Flush();
    restored_tracer.Flush();
    const auto& full = sink.records();
    const auto& replay = restored_sink.records();
    ASSERT_EQ(full.size() - records_at_ckpt, replay.size());
    for (size_t i = 0; i < replay.size(); ++i) {
        ASSERT_TRUE(full[records_at_ckpt + i] == replay[i])
            << "record " << i << " diverged";
    }
}

// ---------------------------------------------------------------------------
// Crash equivalence at the byte level: an interrupted-then-resumed
// capture's trace file is byte-identical to one that never stopped.

TEST(CheckpointResume, ResumedTraceIsByteIdentical)
{
    const Machine::Config mconfig = MixConfig();
    const AtumConfig tconfig = SmallBufferConfig();
    const std::string full_path = TempPath("ckpt_full.atum");
    const std::string torn_path = TempPath("ckpt_torn.atum");
    const std::string ckpt_base = TempPath("ckpt_series");

    // Reference: an uninterrupted capture, sealed normally.
    {
        Machine machine(mconfig);
        auto sink = trace::FileSink::Open(full_path);
        ASSERT_TRUE(sink.ok());
        AtumTracer tracer(machine, **sink, tconfig);
        kernel::BootSystem(machine, workloads::StandardMix(1));
        const auto result =
            core::RunTraced(machine, tracer, 100'000'000);
        ASSERT_TRUE(result.halted);
        ASSERT_TRUE((*sink)->Close().ok());
    }

    // Leg 1: same capture through the shared capture stack, supervised,
    // checkpointing every fill; stopped mid-run by the instruction budget.
    uint64_t resume_seq = 0;
    {
        auto capture = Capture::Start(torn_path, mconfig, tconfig,
                                      trace::Atf2WriterOptions{}.chunk_records);
        ASSERT_TRUE(capture.ok()) << capture.status().ToString();
        kernel::BootSystem((*capture)->machine(), workloads::StandardMix(1));

        CheckpointRotator rotator(ckpt_base, 3);
        SupervisorOptions sup;
        sup.max_instructions = 150'000;
        sup.checkpoints = &rotator;
        sup.checkpoint_every_fills = 1;
        sup.file_sink = &(*capture)->sink();
        const auto result = core::RunSupervised(
            (*capture)->machine(), (*capture)->tracer(), sup);
        EXPECT_EQ(result.stop_cause, StopCause::kInstrLimit);
        ASSERT_TRUE(result.checkpoint_status.ok())
            << result.checkpoint_status.ToString();
        ASSERT_GE(rotator.written(), 2u);
        // Resume from the checkpoint *before* the final one: everything
        // the file gained after it (later chunks, drain, seal footer)
        // plays the role of post-crash garbage that resume must discard.
        resume_seq = rotator.next_sequence() - 2;
        ASSERT_TRUE((*capture)->sink().Close().ok());  // seal = extra bytes
    }

    // Leg 2: resume from that checkpoint and run to natural completion.
    // The meta was read off the stack itself, so it names the trace.
    {
        const std::string ckpt_path = core::CheckpointPath(ckpt_base,
                                                           resume_seq);
        util::StatusOr<Checkpoint> ckpt = Checkpoint::Load(ckpt_path);
        ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
        EXPECT_EQ(ckpt->meta().trace_path, torn_path);
        EXPECT_EQ(ckpt->meta().tracer_config.buffer_bytes,
                  tconfig.buffer_bytes);
        EXPECT_EQ(ckpt->meta().machine_config.mem_bytes, mconfig.mem_bytes);
        EXPECT_EQ(ckpt->meta().sequence, resume_seq);

        auto capture = Capture::Resume(ckpt_path);
        ASSERT_TRUE(capture.ok()) << capture.status().ToString();
        EXPECT_TRUE((*capture)->resumed());
        EXPECT_EQ((*capture)->next_sequence(), resume_seq + 1);

        SupervisorOptions sup;
        sup.max_instructions = 100'000'000;
        const auto result = core::RunSupervised(
            (*capture)->machine(), (*capture)->tracer(), sup);
        EXPECT_EQ(result.stop_cause, StopCause::kHalted);
        ASSERT_TRUE(result.drain_status.ok())
            << result.drain_status.ToString();
        ASSERT_TRUE((*capture)->sink().Close().ok());
    }

    const std::vector<uint8_t> full = ReadAllBytes(full_path);
    const std::vector<uint8_t> resumed = ReadAllBytes(torn_path);
    ASSERT_FALSE(full.empty());
    ASSERT_EQ(full.size(), resumed.size());
    EXPECT_TRUE(full == resumed)
        << "resumed capture diverged from the uninterrupted one";

    std::remove(full_path.c_str());
    std::remove(torn_path.c_str());
}

// A budget-exhausted capture's final checkpoint records 0 instructions
// remaining. Resuming it (a crash after the run ended, before its owner
// noted completion) must run nothing and leave the trace exactly as the
// uninterrupted run sealed it — never start a second budget.
TEST(CheckpointResume, SpentBudgetResumesNothing)
{
    const std::string path = TempPath("ckpt_spent.atum");
    const std::string ckpt_base = TempPath("ckpt_spent");

    std::string final_ckpt;
    uint64_t next_seq = 0;
    {
        auto capture = Capture::Start(path, MixConfig(), SmallBufferConfig(),
                                      trace::Atf2WriterOptions{}.chunk_records);
        ASSERT_TRUE(capture.ok()) << capture.status().ToString();
        kernel::BootSystem((*capture)->machine(), workloads::StandardMix(1));
        CheckpointRotator rotator(ckpt_base, 2);
        SupervisorOptions sup;
        sup.max_instructions = 120'000;
        sup.checkpoints = &rotator;
        sup.file_sink = &(*capture)->sink();
        const auto result = core::RunSupervised(
            (*capture)->machine(), (*capture)->tracer(), sup);
        ASSERT_EQ(result.stop_cause, StopCause::kInstrLimit);
        final_ckpt = result.last_checkpoint;
        next_seq = rotator.next_sequence();
        ASSERT_TRUE((*capture)->sink().Close().ok());
    }
    const std::vector<uint8_t> uninterrupted = ReadAllBytes(path);
    ASSERT_FALSE(uninterrupted.empty());

    {
        auto capture = Capture::Resume(final_ckpt);
        ASSERT_TRUE(capture.ok()) << capture.status().ToString();
        EXPECT_EQ((*capture)->Budget(100'000'000), 0u);
        SupervisorOptions sup;
        sup.max_instructions = (*capture)->Budget(100'000'000);
        const auto result = core::RunSupervised(
            (*capture)->machine(), (*capture)->tracer(), sup);
        EXPECT_EQ(result.instructions, 0u);
        EXPECT_EQ(result.stop_cause, StopCause::kInstrLimit);
        ASSERT_TRUE((*capture)->sink().Close().ok());
    }
    EXPECT_TRUE(ReadAllBytes(path) == uninterrupted)
        << "resuming a spent budget changed the trace";

    for (uint64_t s = 1; s < next_seq; ++s)
        std::remove(core::CheckpointPath(ckpt_base, s).c_str());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The checkpoint series: one name format, one recovery lookup.

TEST(CheckpointSeries, NameFormatRoundTrips)
{
    EXPECT_EQ(core::CheckpointPath("d/job-1.ckpt", 7),
              "d/job-1.ckpt.000007.atck");
    EXPECT_EQ(core::CheckpointSeriesBase("d/job-1.ckpt.000007.atck"),
              "d/job-1.ckpt");
    EXPECT_EQ(core::CheckpointSeriesBase("x.1234567.atck"), "x");
    EXPECT_EQ(core::CheckpointSeriesBase("x.atck"), "");
    EXPECT_EQ(core::CheckpointSeriesBase("x..atck"), "");
    EXPECT_EQ(core::CheckpointSeriesBase("x.12a.atck"), "");
    EXPECT_EQ(core::CheckpointSeriesBase("x.000001.atck.tmp"), "");
}

TEST(CheckpointSeries, NewestResumableCheckpointWins)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    io::MemVfs vfs;
    const trace::Atf2ResumeState sink_state;

    EXPECT_EQ(core::FindNewestCheckpoint("ckpt", vfs).status().code(),
              util::StatusCode::kNotFound);

    // 1 and 2 carry sink state, 3 does not; another series shares the
    // directory.
    CheckpointRotator rotator("ckpt", 5, 1, vfs);
    CheckpointMeta meta;
    meta.machine_config = MixConfig();
    meta.tracer_config = SmallBufferConfig();
    ASSERT_TRUE(rotator.Write(meta, machine, tracer, &sink_state).ok());
    ASSERT_TRUE(rotator.Write(meta, machine, tracer, &sink_state).ok());
    ASSERT_TRUE(rotator.Write(meta, machine, tracer, nullptr).ok());
    CheckpointRotator other("ckpt-other", 5, 9, vfs);
    ASSERT_TRUE(other.Write(meta, machine, tracer, &sink_state).ok());

    auto found = core::FindNewestCheckpoint("ckpt", vfs);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found->meta().sequence, 2u);

    // A torn newest checkpoint falls back to the one before it.
    {
        auto out = trace::FileByteSink::Open("ckpt.000002.atck", vfs);
        ASSERT_TRUE(out.ok());
        ASSERT_TRUE((*out)->Write("torn", 4).ok());
        ASSERT_TRUE((*out)->Close().ok());
    }
    found = core::FindNewestCheckpoint("ckpt", vfs);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found->meta().sequence, 1u);
}

// ---------------------------------------------------------------------------
// Corruption matrix: no damaged checkpoint may restore, and none may
// crash the loader.

class CheckpointCorruption : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        Machine machine(MixConfig());
        trace::VectorSink sink;
        AtumTracer tracer(machine, sink, SmallBufferConfig());
        kernel::BootSystem(machine, workloads::StandardMix(1));
        tracer.Attach();
        machine.Run(20'000);

        CheckpointMeta meta;
        meta.machine_config = MixConfig();
        meta.tracer_config = SmallBufferConfig();
        trace::Atf2ResumeState sink_state;
        sink_state.file_bytes = 32;
        MemoryByteSink out;
        ASSERT_TRUE(core::WriteCheckpoint(out, meta, machine, tracer,
                                          &sink_state)
                        .ok());
        bytes_ = out.bytes();
    }

    util::Status ReadStatus(const std::vector<uint8_t>& bytes)
    {
        MemoryByteSource source(bytes);
        util::StatusOr<Checkpoint> ckpt = Checkpoint::Read(source);
        return ckpt.ok() ? util::OkStatus() : ckpt.status();
    }

    std::vector<uint8_t> bytes_;
};

TEST_F(CheckpointCorruption, IntactCheckpointLoads)
{
    EXPECT_TRUE(ReadStatus(bytes_).ok());
}

TEST_F(CheckpointCorruption, EveryTruncationIsRejected)
{
    // Cut at frame boundaries and at awkward mid-frame offsets.
    const size_t cuts[] = {0,  8,  31,  32,  40,  55,  56,
                           bytes_.size() / 2, bytes_.size() - 25,
                           bytes_.size() - 1};
    for (const size_t cut : cuts) {
        if (cut >= bytes_.size())
            continue;
        std::vector<uint8_t> torn(bytes_.begin(), bytes_.begin() + cut);
        EXPECT_FALSE(ReadStatus(torn).ok()) << "cut at " << cut;
    }
}

TEST_F(CheckpointCorruption, EveryBitFlipIsRejected)
{
    // A spread of offsets: header, section headers, payloads, footer.
    const size_t stride = bytes_.size() / 37 + 1;
    unsigned tested = 0;
    for (size_t off = 0; off < bytes_.size(); off += stride, ++tested) {
        std::vector<uint8_t> bad = bytes_;
        bad[off] ^= 0x40;
        EXPECT_FALSE(ReadStatus(bad).ok()) << "flip at " << off;
    }
    EXPECT_GE(tested, 30u);
}

TEST_F(CheckpointCorruption, GeometryMismatchIsRejected)
{
    MemoryByteSource source(bytes_);
    util::StatusOr<Checkpoint> ckpt = Checkpoint::Read(source);
    ASSERT_TRUE(ckpt.ok());

    // A machine with the wrong memory size must refuse the image.
    Machine::Config small = MixConfig();
    small.mem_bytes = 1u << 20;
    Machine wrong(small);
    EXPECT_FALSE(ckpt->RestoreMachine(wrong).ok());

    // A tracer with a different buffer must refuse the cursor.
    Machine right(ckpt->meta().machine_config);
    trace::VectorSink sink;
    AtumConfig tiny = SmallBufferConfig();
    tiny.buffer_bytes = 8u << 10;
    AtumTracer wrong_tracer(right, sink, tiny);
    EXPECT_FALSE(ckpt->RestoreTracer(wrong_tracer).ok());
}

TEST_F(CheckpointCorruption, NonConstantTracerSlotIsRejected)
{
    // The meta keeps v2's drain-policy and record-filter slots at the
    // values this build fixes. A checkpoint whose slot says otherwise
    // (CRCs intact) came from a capture this build cannot continue byte
    // for byte, so it must not load.
    constexpr size_t kMetaHeader = core::kCheckpointHeaderBytes;
    constexpr size_t kMetaPayload =
        kMetaHeader + core::kCheckpointSectionHeaderBytes;
    const uint64_t payload_bytes = [&] {
        uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = v << 8 | bytes_[kMetaHeader + 8 + i];
        return v;
    }();
    auto put32 = [](std::vector<uint8_t>& b, size_t at, uint32_t v) {
        for (int i = 0; i < 4; ++i)
            b[at + i] = static_cast<uint8_t>(v >> (8 * i));
    };
    // Payload offsets: four machine u32s, buffer_bytes, cost_per_record,
    // then the fixed slots (record_opcodes sits at 32).
    struct Slot {
        size_t offset;
        uint32_t value;
        bool is_u32;
    };
    const Slot slots[] = {
        {24, 1, true},                    // drain pause ucycles
        {28, 0, false}, {29, 0, false},   // ifetch, pte filters
        {30, 0, false}, {31, 2, false},   // tlb-miss, exception filters
        {33, 0, true},                    // drain max retries
        {37, 7, true},                    // drain retry ucycles
    };
    auto reseal = [&](std::vector<uint8_t>& b) {
        put32(b, kMetaHeader + 16,
              util::Crc32c(&b[kMetaPayload], payload_bytes));
        put32(b, kMetaHeader + 20, util::Crc32c(&b[kMetaHeader], 20));
    };
    std::vector<uint8_t> resealed = bytes_;
    reseal(resealed);
    ASSERT_TRUE(ReadStatus(resealed).ok());  // the re-CRC alone is harmless

    for (const Slot& slot : slots) {
        std::vector<uint8_t> bad = bytes_;
        if (slot.is_u32)
            put32(bad, kMetaPayload + slot.offset, slot.value);
        else
            bad[kMetaPayload + slot.offset] = static_cast<uint8_t>(slot.value);
        reseal(bad);
        const util::Status status = ReadStatus(bad);
        EXPECT_EQ(status.code(), util::StatusCode::kDataLoss)
            << "slot at " << slot.offset << ": " << status.ToString();
        EXPECT_NE(status.message().find("byte for byte"), std::string::npos)
            << status.ToString();
    }
}

// ---------------------------------------------------------------------------
// Supervisor stop paths.

/** Boots a guest that faults into its own fault handler forever. */
void
BootWedge(Machine& machine)
{
    constexpr uint32_t kBadPc = 0x200;
    machine.WriteIpr(isa::Ipr::kScbb, 0x0);
    machine.WriteIpr(isa::Ipr::kKsp, 0x8000);
    for (uint32_t v = 0;
         v < static_cast<uint32_t>(cpu::ExcVector::kNumVectors); ++v)
        machine.memory().Write32(4 * v, kBadPc);
    machine.memory().Write8(kBadPc, 0xFF);
    machine.set_pc(kBadPc);
}

TEST(Supervisor, WatchdogCatchesWedgedGuest)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    BootWedge(machine);

    SupervisorOptions sup;
    sup.max_instructions = 10'000'000;
    sup.watchdog_ucycles = 100'000;
    const auto result = core::RunSupervised(machine, tracer, sup);
    EXPECT_EQ(result.stop_cause, StopCause::kWatchdog);
    EXPECT_FALSE(result.halted);
    // The wedge burned far fewer instructions than the budget: the
    // watchdog, not the limit, stopped the run.
    EXPECT_LT(result.instructions, sup.max_instructions);
}

TEST(Supervisor, WatchdogToleratesBusyHealthyGuest)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));

    SupervisorOptions sup;
    sup.max_instructions = 300'000;
    // Tight budget: the mix faults constantly (TB misses, page faults,
    // timer interrupts) yet always retires cleanly in between.
    sup.watchdog_ucycles = 100'000;
    const auto result = core::RunSupervised(machine, tracer, sup);
    EXPECT_EQ(result.stop_cause, StopCause::kInstrLimit);
}

TEST(Supervisor, StopFlagStopsAtSliceBoundaryAndCheckpoints)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));

    const std::string base = TempPath("ckpt_sigstop");
    CheckpointRotator rotator(base, 2);
    volatile std::sig_atomic_t flag = SIGINT;

    SupervisorOptions sup;
    sup.max_instructions = 100'000'000;
    sup.stop_flag = &flag;
    sup.checkpoints = &rotator;
    const auto result = core::RunSupervised(machine, tracer, sup);
    EXPECT_EQ(result.stop_cause, StopCause::kSignal);
    // Stopped after one slice, not the whole budget.
    EXPECT_LE(result.instructions, sup.slice_instructions);
    // The graceful stop sealed a final checkpoint.
    EXPECT_GE(result.checkpoints_written, 1u);
    EXPECT_FALSE(result.last_checkpoint.empty());
    EXPECT_TRUE(Checkpoint::Load(result.last_checkpoint).ok());
    for (uint64_t s = 1; s < rotator.next_sequence(); ++s)
        std::remove(rotator.PathFor(s).c_str());
    EXPECT_TRUE(result.drain_status.ok());
}

TEST(Supervisor, DeadlineStopsLongCapture)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));

    SupervisorOptions sup;
    sup.max_instructions = UINT64_MAX;  // only the deadline can stop it
    sup.deadline_ms = 1;
    const auto result = core::RunSupervised(machine, tracer, sup);
    // Either the deadline fired, or the workload halted first on a very
    // fast host — both are clean stops; an instruction-limit stop with
    // UINT64_MAX budget would mean the deadline was ignored.
    EXPECT_TRUE(result.stop_cause == StopCause::kDeadline ||
                result.stop_cause == StopCause::kHalted);
}

// ---------------------------------------------------------------------------
// Rotation and drain-status reporting.

TEST(CheckpointRotatorTest, KeepsOnlyTheRetentionWindow)
{
    Machine machine(MixConfig());
    trace::VectorSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());

    const std::string base = TempPath("ckpt_rotate");
    CheckpointRotator rotator(base, 2);
    CheckpointMeta meta;
    meta.machine_config = MixConfig();
    meta.tracer_config = SmallBufferConfig();
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(rotator.Write(meta, machine, tracer, nullptr).ok());

    EXPECT_EQ(rotator.written(), 5u);
    EXPECT_EQ(rotator.last_path(), rotator.PathFor(5));
    // Sequences 4 and 5 survive; 1-3 were pruned.
    EXPECT_FALSE(Checkpoint::Load(rotator.PathFor(1)).ok());
    EXPECT_FALSE(Checkpoint::Load(rotator.PathFor(2)).ok());
    EXPECT_FALSE(Checkpoint::Load(rotator.PathFor(3)).ok());
    EXPECT_TRUE(Checkpoint::Load(rotator.PathFor(4)).ok());
    EXPECT_TRUE(Checkpoint::Load(rotator.PathFor(5)).ok());
    std::remove(rotator.PathFor(4).c_str());
    std::remove(rotator.PathFor(5).c_str());
}

/** A sink that refuses everything — the permanently broken disk. */
class RefusingSink : public trace::TraceSink
{
  public:
    util::Status Append(const trace::Record&) override
    {
        return util::Unavailable("disk on fire");
    }
};

TEST(FlushStatus, EndOfRunLossIsReported)
{
    Machine machine(MixConfig());
    RefusingSink sink;
    AtumTracer tracer(machine, sink, SmallBufferConfig());
    kernel::BootSystem(machine, workloads::StandardMix(1));
    const auto result = core::RunTraced(machine, tracer, 300'000);
    EXPECT_TRUE(result.degraded);
    EXPECT_FALSE(result.drain_status.ok());
    EXPECT_GT(result.lost_records, 0u);
}

}  // namespace
}  // namespace atum
