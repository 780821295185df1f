// Corruption matrix for the ATF2 container: every truncation point,
// bit flips in every chunk position, faults injected under the file
// sink and source, and the retired v1 magic. No test here may
// kill the process — malformed file input must always come back as a
// Status or a damage report.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/chaos.h"
#include "io/mem_vfs.h"
#include "trace/container.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "util/crc32.h"
#include "util/status.h"

namespace atum::trace {
namespace {

std::string
TempPath(const char* name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

Record
TestRecord(uint32_t i)
{
    Record r;
    r.type = i % 2 ? RecordType::kRead : RecordType::kWrite;
    r.addr = 0x2000 + i * 4;
    r.flags = MakeFlags(i % 3 == 0, 4);
    r.info = static_cast<uint16_t>(i);
    return r;
}

std::vector<Record>
TestRecords(uint32_t n)
{
    std::vector<Record> records;
    for (uint32_t i = 0; i < n; ++i)
        records.push_back(TestRecord(i));
    return records;
}

/** A sealed container of `n` records, 4 records per chunk. */
std::vector<uint8_t>
SealedContainer(uint32_t n)
{
    MemoryByteSink sink;
    EXPECT_TRUE(WriteAtf2(sink, TestRecords(n), {.chunk_records = 4}).ok());
    return sink.bytes();
}

ScanReport
Scan(const std::vector<uint8_t>& bytes, std::vector<Record>* out = nullptr)
{
    MemoryByteSource source(bytes);
    return ScanTrace(source, out);
}

// With chunk_records = 4 the layout of a 10-record container is:
//   [0,32)    header
//   [32,80)   chunk 0 (records 0..3)
//   [80,128)  chunk 1 (records 4..7)
//   [128,160) chunk 2 (records 8..9, partial: 16 + 2*8)
//   [160,184) footer
constexpr size_t kChunk0 = 32;
constexpr size_t kChunk1 = 80;
constexpr size_t kChunk2 = 128;
constexpr size_t kFooter = 160;
constexpr size_t kEnd = 184;

TEST(Container, SealedRoundTripIsIntact)
{
    const std::vector<uint8_t> bytes = SealedContainer(10);
    ASSERT_EQ(bytes.size(), kEnd);

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_TRUE(report.intact());
    EXPECT_TRUE(report.sealed);
    EXPECT_EQ(report.chunks_ok, 3u);
    EXPECT_EQ(report.chunks_bad, 0u);
    EXPECT_EQ(report.records_salvaged, 10u);
    EXPECT_EQ(report.footer_records, 10u);
    EXPECT_EQ(report.valid_prefix_records, 10u);
    EXPECT_EQ(back, TestRecords(10));
}

TEST(Container, EmptyTraceSealsAndVerifies)
{
    MemoryByteSink sink;
    ASSERT_TRUE(WriteAtf2(sink, {}, {.chunk_records = 4}).ok());
    const ScanReport report = Scan(sink.bytes());
    EXPECT_TRUE(report.intact());
    EXPECT_EQ(report.records_salvaged, 0u);
}

TEST(Container, ZeroLengthFileIsNotATrace)
{
    const ScanReport report = Scan({});
    EXPECT_FALSE(report.recognized);
    EXPECT_FALSE(report.intact());
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].error, "empty file");
}

// Truncate the container at EVERY byte boundary. The scanner must never
// die, never report intact, and always salvage exactly the records of
// the complete chunks in the surviving prefix.
TEST(Container, TruncationAtEveryOffsetSalvagesCompleteChunks)
{
    const std::vector<uint8_t> full = SealedContainer(10);
    ASSERT_EQ(full.size(), kEnd);

    for (size_t len = 0; len < full.size(); ++len) {
        const std::vector<uint8_t> cut(full.begin(), full.begin() + len);
        std::vector<Record> back;
        const ScanReport report = Scan(cut, &back);

        uint64_t want = 0;
        if (len >= kChunk1)
            want = 4;
        if (len >= kChunk2)
            want = 8;
        if (len >= kFooter)
            want = 10;

        EXPECT_FALSE(report.intact()) << "truncated to " << len;
        EXPECT_EQ(report.records_salvaged, want) << "truncated to " << len;
        EXPECT_EQ(report.valid_prefix_records, want)
            << "truncated to " << len;
        EXPECT_FALSE(report.sealed) << "truncated to " << len;
        ASSERT_EQ(back.size(), want) << "truncated to " << len;
        for (size_t i = 0; i < back.size(); ++i)
            EXPECT_EQ(back[i], TestRecord(static_cast<uint32_t>(i)));
    }
}

// Flip one payload byte in the first, middle, and last chunk: exactly
// that chunk is lost, the islands around it are salvaged bit-exact, and
// the guaranteed prefix stops at the flip.
TEST(Container, PayloadFlipConfinesLossToOneChunk)
{
    struct Case {
        size_t chunk_offset;
        uint64_t prefix;            ///< records before the bad chunk
        std::vector<uint32_t> ids;  ///< surviving record indices
    };
    const std::vector<Case> cases = {
        {kChunk0, 0, {4, 5, 6, 7, 8, 9}},
        {kChunk1, 4, {0, 1, 2, 3, 8, 9}},
        {kChunk2, 8, {0, 1, 2, 3, 4, 5, 6, 7}},
    };
    for (const Case& c : cases) {
        std::vector<uint8_t> bytes = SealedContainer(10);
        bytes[c.chunk_offset + kAtf2ChunkHeaderBytes + 3] ^= 0x40;

        std::vector<Record> back;
        const ScanReport report = Scan(bytes, &back);
        EXPECT_FALSE(report.intact());
        EXPECT_TRUE(report.sealed);  // the footer itself is fine
        EXPECT_EQ(report.chunks_ok, 2u);
        EXPECT_EQ(report.chunks_bad, 1u);
        EXPECT_EQ(report.records_salvaged, c.ids.size());
        EXPECT_EQ(report.valid_prefix_records, c.prefix);
        ASSERT_EQ(back.size(), c.ids.size());
        for (size_t i = 0; i < back.size(); ++i)
            EXPECT_EQ(back[i], TestRecord(c.ids[i]));
    }
}

TEST(Container, ChunkHeaderFlipResynchronizesAtNextMarker)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kChunk1 + 5] ^= 0xFF;  // chunk 1's record-count field

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.chunks_bad, 1u);  // the skipped chunk is damage
    EXPECT_EQ(report.records_salvaged, 6u);  // chunks 0 and 2
    EXPECT_EQ(report.valid_prefix_records, 4u);
    ASSERT_EQ(back.size(), 6u);
    EXPECT_EQ(back[4], TestRecord(8));
}

TEST(Container, MarkerFlipCountsTheSkippedChunk)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kChunk1] ^= 0x01;  // chunk 1's CHNK marker: framing is lost

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.chunks_ok, 2u);
    EXPECT_EQ(report.chunks_bad, 1u);
    EXPECT_EQ(report.records_salvaged, 6u);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].error,
              "lost framing; resynchronized after 48 bytes");
    EXPECT_EQ(back[4], TestRecord(8));
}

TEST(Container, LongGapIsBoundedBySkippedBytes)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kChunk1] ^= 0x01;  // two markers in a row: one 80-byte gap
    bytes[kChunk2] ^= 0x01;

    // 80 bytes hold at most 10 records, three 4-record chunks; 6 records
    // were really lost.
    const ScanReport report = Scan(bytes);
    EXPECT_EQ(report.chunks_ok, 1u);
    EXPECT_EQ(report.chunks_bad, 3u);
    EXPECT_EQ(report.records_salvaged, 4u);

    // With the header's capacity untrusted, the full chunk 0 stands in.
    bytes[9] ^= 0x01;
    EXPECT_EQ(Scan(bytes).chunks_bad, 3u);
}

TEST(Container, MagicFlipBeforeIntactChunkIsADamagedHeader)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[2] ^= 0x20;  // "ATF2" -> "ATf2"

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_TRUE(report.recognized);
    EXPECT_TRUE(report.sealed);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.chunks_bad, 0u);
    EXPECT_EQ(report.records_salvaged, 10u);
    EXPECT_EQ(back, TestRecords(10));
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].offset, 0u);

    // Without an intact chunk at offset 32 it is some other file.
    bytes[kChunk0 + 12] ^= 0x01;  // chunk 0's header CRC
    EXPECT_FALSE(Scan(bytes).recognized);
}

TEST(Container, HeaderFlipStillSalvagesAllChunks)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[9] ^= 0x01;  // version field; header CRC now fails

    const ScanReport report = Scan(bytes);
    EXPECT_FALSE(report.intact());
    // Chunks self-describe, so an untrusted header loses nothing.
    EXPECT_EQ(report.records_salvaged, 10u);
    EXPECT_EQ(report.valid_prefix_records, 0u);
}

TEST(Container, FooterFlipLeavesRecordsButNotSealed)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kFooter + 8] ^= 0xFF;  // footer's record total

    const ScanReport report = Scan(bytes);
    EXPECT_FALSE(report.intact());
    EXPECT_FALSE(report.sealed);
    EXPECT_EQ(report.records_salvaged, 10u);
}

// ---------------------------------------------------------------------------
// The retired v1 format.

// The checksum-free v1 format is no longer read: its magic is just an
// unknown one, so nothing in such a file is trusted or counted.
TEST(Container, RetiredV1MagicScansAsUnrecognized)
{
    std::vector<uint8_t> bytes = {'A', 'T', 'U', 'M', '0', '0', '0', '1'};
    for (uint32_t i = 0; i < 7; ++i) {
        uint8_t packed[kRecordBytes];
        PackRecord(TestRecord(i), packed);
        bytes.insert(bytes.end(), packed, packed + sizeof packed);
    }

    std::vector<Record> back;
    const ScanReport report = Scan(bytes, &back);
    EXPECT_FALSE(report.recognized);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.records_salvaged, 0u);
    EXPECT_TRUE(back.empty());
}

// A CRC-clean chunk holding one impossible record (a type byte no writer
// produces) is rejected whole: the records unpacked before the bad one
// must not stay in `out`.
TEST(Container, ImplausibleRecordRollsBackItsWholeChunk)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    // Record 6 is the third record of chunk 1; give it type 0xEE and
    // re-checksum the payload and the chunk header around it.
    uint8_t* chunk = bytes.data() + kChunk1;
    uint8_t* payload = chunk + kAtf2ChunkHeaderBytes;
    payload[2 * kRecordBytes + 4] = 0xEE;
    const auto put32 = [](uint8_t* p, uint32_t v) {
        for (int i = 0; i < 4; ++i)
            p[i] = static_cast<uint8_t>(v >> (8 * i));
    };
    put32(chunk + 8, util::Crc32c(payload, 4 * kRecordBytes));
    put32(chunk + 12, util::Crc32c(chunk, 12));

    std::vector<Record> out;
    const ScanReport report = Scan(bytes, &out);
    EXPECT_EQ(report.chunks_ok, 2u);
    EXPECT_EQ(report.chunks_bad, 1u);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].offset, kChunk1);
    EXPECT_EQ(report.issues[0].error,
              "chunk passes CRC but holds implausible records");
    std::vector<Record> expected = TestRecords(4);
    expected.push_back(TestRecord(8));
    expected.push_back(TestRecord(9));
    EXPECT_EQ(out, expected);
    EXPECT_EQ(report.records_salvaged, expected.size());
}

// ---------------------------------------------------------------------------
// Fault injection through FileByteSink / FileByteSource, at the one fault
// seam: an io::ChaosVfs over an io::MemVfs. Chaos op indices are 1-based
// per operation class; with 4 records per chunk, write #1 is the header
// and write #k+2 is chunk k's flush.

constexpr char kFaultPath[] = "fault.atf2";

io::ChaosSchedule
OneFault(const io::ChaosOp& op)
{
    io::ChaosSchedule schedule;
    schedule.ops.push_back(op);
    return schedule;
}

/** Writes `records` (4 per chunk) to kFaultPath on `vfs`. */
util::Status
WriteFile(io::Vfs& vfs, const std::vector<Record>& records)
{
    util::StatusOr<std::unique_ptr<FileByteSink>> sink =
        FileByteSink::Open(kFaultPath, vfs);
    if (!sink.ok())
        return sink.status();
    const util::Status status =
        WriteAtf2(**sink, records, {.chunk_records = 4});
    (void)(*sink)->Close();
    return status;
}

/** Scans kFaultPath on `vfs` the way every trace reader does. */
ScanReport
ScanFile(io::Vfs& vfs, std::vector<Record>* out = nullptr)
{
    util::StatusOr<std::unique_ptr<FileByteSource>> in =
        FileByteSource::Open(kFaultPath, vfs);
    EXPECT_TRUE(in.ok()) << in.status().ToString();
    if (!in.ok())
        return ScanReport{};
    return ScanTrace(**in, out);
}

TEST(Container, FailedAppendConsumesNothingAndIsRetryable)
{
    io::MemVfs mem;
    io::ChaosVfs vfs(mem,
                     OneFault({io::ChaosOpKind::kFailWrite, /*at=*/2}));
    util::StatusOr<std::unique_ptr<FileByteSink>> sink =
        FileByteSink::Open(kFaultPath, vfs);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    Atf2Writer writer(**sink, {.chunk_records = 4});

    const std::vector<Record> records = TestRecords(10);
    uint64_t delivered = 0;
    unsigned retries = 0;
    while (delivered < records.size()) {
        const util::Status status = writer.Append(records[delivered]);
        if (status.ok())
            ++delivered;
        else
            ++retries;  // same record goes again: nothing was consumed
    }
    ASSERT_TRUE(writer.Seal().ok());
    ASSERT_TRUE((*sink)->Close().ok());
    EXPECT_EQ(retries, 1u);
    EXPECT_EQ(vfs.faults_fired(), 1u);

    // Despite the mid-stream failure and retry: no duplicate, no gap.
    std::vector<Record> back;
    const ScanReport report = ScanFile(mem, &back);
    EXPECT_TRUE(report.intact());
    EXPECT_EQ(back, records);
}

TEST(Container, ShortWriteLeavesRecoverablePrefix)
{
    io::MemVfs mem;
    // Chunk 1's flush lands only 20 bytes and fails: the file ends at
    // byte 100 = header (32) + chunk 0 (48) + 20 bytes of chunk 1.
    io::ChaosVfs vfs(mem, OneFault({io::ChaosOpKind::kShortWrite,
                                    /*at=*/3, /*arg=*/20}));
    EXPECT_FALSE(WriteFile(vfs, TestRecords(10)).ok());
    ASSERT_EQ(mem.ReadAll(kFaultPath)->size(), 100u);

    std::vector<Record> back;
    const ScanReport report = ScanFile(mem, &back);
    EXPECT_FALSE(report.intact());
    EXPECT_FALSE(report.sealed);
    EXPECT_EQ(report.records_salvaged, 4u);
    EXPECT_EQ(back, TestRecords(4));
}

TEST(Container, InFlightFlipIsDetected)
{
    io::MemVfs mem;
    // Byte 20 of chunk 1's flush (file offset kChunk1 + 20) is flipped
    // in flight while the write reports success.
    io::ChaosVfs vfs(mem, OneFault({io::ChaosOpKind::kFlipWrite,
                                    /*at=*/3, /*arg=*/20}));
    ASSERT_TRUE(WriteFile(vfs, TestRecords(10)).ok());

    const ScanReport report = ScanFile(mem);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.chunks_bad, 1u);
    EXPECT_EQ(report.records_salvaged, 6u);
}

TEST(Container, FailedReadIsReportedNotFatal)
{
    io::MemVfs mem;
    ASSERT_TRUE(WriteFile(mem, TestRecords(10)).ok());
    io::ChaosVfs vfs(mem, OneFault({io::ChaosOpKind::kFailRead, /*at=*/1}));
    const ScanReport report = ScanFile(vfs);
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.records_salvaged, 0u);
    ASSERT_FALSE(report.issues.empty());
    EXPECT_NE(report.issues[0].error.find("read failed"), std::string::npos);
}

// 20000 records at 4 per chunk: 5000 chunks of 48 bytes, 240 056 bytes
// in all, so more than three 64 KiB read calls.
constexpr uint32_t kLargeRecords = 20000;

TEST(Container, LargeScanReadCallsArePinned)
{
    io::MemVfs mem;
    ASSERT_TRUE(WriteFile(mem, TestRecords(kLargeRecords)).ok());
    ASSERT_EQ(mem.ReadAll(kFaultPath)->size(), 240056u);

    // Four 64 KiB calls return data and a fifth returns 0. The
    // bitflip campaign aims `flip-read` by this numbering.
    io::ChaosVfs probe(mem, io::ChaosSchedule{});
    std::vector<Record> back;
    EXPECT_TRUE(ScanFile(probe, &back).intact());
    EXPECT_EQ(probe.counts().reads, 5u);
    EXPECT_EQ(back, TestRecords(kLargeRecords));

    // Read #3 starts at file offset 131072; its byte 118 is file offset
    // 131190, inside the payload of chunk 2732 (offset 131168).
    io::ChaosVfs vfs(mem, OneFault({io::ChaosOpKind::kFlipRead, /*at=*/3,
                                    /*arg=*/118}));
    back.clear();
    const ScanReport report = ScanFile(vfs, &back);
    EXPECT_EQ(vfs.faults_fired(), 1u);
    EXPECT_EQ(report.chunks_bad, 1u);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].offset, 131168u);
    EXPECT_EQ(report.issues[0].error,
              "chunk payload CRC mismatch (4 records lost)");
    std::vector<Record> expected = TestRecords(kLargeRecords);
    expected.erase(expected.begin() + 2732 * 4,
                   expected.begin() + 2733 * 4);
    EXPECT_EQ(back, expected);
}

/** A memory source that reports a chosen size hint. */
class HintedSource : public ByteSource
{
  public:
    HintedSource(const std::vector<uint8_t>& bytes, uint64_t hint)
        : inner_(bytes), hint_(hint)
    {
    }

    util::StatusOr<size_t> Read(void* data, size_t len) override
    {
        return inner_.Read(data, len);
    }
    uint64_t SizeHint() const override { return hint_; }

  private:
    MemoryByteSource inner_;
    uint64_t hint_;
};

TEST(Container, SizeHintChangesNothingButSpeed)
{
    // Damaged and unsealed, so the report has issues to compare too.
    std::vector<uint8_t> bytes = SealedContainer(kLargeRecords);
    bytes[kChunk1 + 20] ^= 0x80;
    bytes[150000] ^= 0x01;
    bytes.resize(bytes.size() - 30);

    std::vector<Record> exact_records;
    MemoryByteSource exact(bytes);
    ASSERT_EQ(exact.SizeHint(), bytes.size());
    const ScanReport want = ScanTrace(exact, &exact_records);
    ASSERT_EQ(want.chunks_bad, 2u);

    for (const uint64_t hint :
         {uint64_t{0}, uint64_t{1}, uint64_t{bytes.size() / 3},
          uint64_t{bytes.size() - 1}, uint64_t{bytes.size() + 1},
          uint64_t{2 * bytes.size() + 12345}}) {
        HintedSource source(bytes, hint);
        std::vector<Record> records;
        const ScanReport got = ScanTrace(source, &records);
        EXPECT_EQ(got.ToString(), want.ToString()) << "hint " << hint;
        EXPECT_EQ(records, exact_records) << "hint " << hint;
    }
}

TEST(Container, SalvageOfDamagedFileVerifiesIntact)
{
    std::vector<uint8_t> bytes = SealedContainer(10);
    bytes[kChunk1 + 20] ^= 0x80;

    std::vector<Record> salvaged;
    const ScanReport damaged = Scan(bytes, &salvaged);
    ASSERT_FALSE(damaged.intact());
    ASSERT_GE(salvaged.size(), damaged.valid_prefix_records);

    MemoryByteSink repaired;
    ASSERT_TRUE(WriteAtf2(repaired, salvaged).ok());
    std::vector<Record> back;
    const ScanReport report = Scan(repaired.bytes(), &back);
    EXPECT_TRUE(report.intact());
    EXPECT_EQ(back, salvaged);
}

// ---------------------------------------------------------------------------
// File-backed sink/source behavior.

TEST(Container, FileSinkDoubleCloseIsIdempotent)
{
    const std::string path = TempPath("double_close.atf");
    auto sink = FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    for (uint32_t i = 0; i < 5; ++i)
        ASSERT_TRUE((*sink)->Append(TestRecord(i)).ok());

    EXPECT_TRUE((*sink)->Close().ok());
    EXPECT_TRUE((*sink)->Close().ok());  // second close: same outcome
    EXPECT_EQ((*sink)->count(), 5u);

    const util::Status late = (*sink)->Append(TestRecord(9));
    EXPECT_EQ(late.code(), util::StatusCode::kFailedPrecondition);

    auto loaded = LoadTrace(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, TestRecords(5));
    std::remove(path.c_str());
}

TEST(Container, FileSinkOpenFailureIsStatusNotFatal)
{
    auto sink = FileSink::Open("/nonexistent/dir/trace.atf");
    ASSERT_FALSE(sink.ok());
    // The posix wrappers classify ENOENT precisely (it still maps to
    // exit 3 in the tools' shared contract, like every I/O failure).
    EXPECT_EQ(sink.status().code(), util::StatusCode::kNotFound);
}

TEST(Container, LoadTraceOnDamagedFileIsDataLoss)
{
    const std::string path = TempPath("damaged.atf");
    {
        auto out = FileByteSink::Open(path);
        ASSERT_TRUE(out.ok());
        std::vector<uint8_t> bytes = SealedContainer(10);
        bytes[kChunk0 + 20] ^= 0x01;
        ASSERT_TRUE((*out)->Write(bytes.data(), bytes.size()).ok());
        ASSERT_TRUE((*out)->Close().ok());
    }
    auto loaded = LoadTrace(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("salvageable"),
              std::string::npos);

    // The tolerant scan still serves the islands.
    auto in = FileByteSource::Open(path);
    ASSERT_TRUE(in.ok());
    std::vector<Record> islands;
    const ScanReport report = ScanTrace(**in, &islands);
    EXPECT_EQ(islands.size(), 6u);
    EXPECT_EQ(report.records_salvaged, 6u);
    EXPECT_FALSE(report.intact());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace atum::trace
