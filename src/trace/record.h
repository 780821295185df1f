#ifndef ATUM_TRACE_RECORD_H_
#define ATUM_TRACE_RECORD_H_

/**
 * @file
 * The ATUM trace record: the 8-byte unit the microcode patch appends to the
 * reserved physical-memory buffer for every event of interest.
 *
 * Layout (little-endian when serialized):
 *   bytes 0..3  addr   virtual address (physical for kPte records)
 *   byte  4     type   RecordType
 *   byte  5     flags  bit0 kernel-mode, bits 2:1 log2(access size)
 *   bytes 6..7  info   pid (kCtxSwitch), vector (kException), else 0
 */

#include <cstdint>

#include "ucode/micro_op.h"

namespace atum::trace {

/** What a record describes. */
enum class RecordType : uint8_t {
    kIFetch = 0,     ///< instruction-stream fetch
    kRead = 1,       ///< data-stream read
    kWrite = 2,      ///< data-stream write
    kPte = 3,        ///< page-table entry reference (addr is physical)
    kCtxSwitch = 4,  ///< context switch; info = new pid, addr = PCB
    kTlbMiss = 5,    ///< translation-buffer miss; addr = faulting va
    kException = 6,  ///< exception/interrupt dispatch; info = vector
    kOpcode = 7,     ///< instruction decode marker; addr = pc, info = opcode
    kLoss = 8,       ///< capture gap; addr = records lost, info = event no.
    kDma = 9,        ///< DMA engine bus write; addr is physical
    kNumTypes = 10,
};

/** Flag bits in Record::flags. */
inline constexpr uint8_t kFlagKernel = 0x01;

struct Record {
    uint32_t addr = 0;
    RecordType type = RecordType::kRead;
    uint8_t flags = 0;
    uint16_t info = 0;

    bool kernel() const { return (flags & kFlagKernel) != 0; }
    /** Access size in bytes (1, 2 or 4); meaningful for memory records. */
    uint8_t size() const { return static_cast<uint8_t>(1u << ((flags >> 1) & 3)); }
    /** True for kIFetch/kRead/kWrite/kPte records. */
    bool IsMemory() const
    {
        return type == RecordType::kIFetch || type == RecordType::kRead ||
               type == RecordType::kWrite || type == RecordType::kPte;
    }

    bool operator==(const Record&) const = default;
};

/** Serialized record size in the trace buffer and trace files. */
inline constexpr uint32_t kRecordBytes = 8;

/** Builds the flags byte. */
uint8_t MakeFlags(bool kernel, uint8_t size_bytes);

/** Converts a microcode-level memory access into a trace record. */
Record FromMemAccess(const ucode::MemAccess& access);

/** Builds a context-switch marker record. */
Record MakeCtxSwitch(uint16_t pid, uint32_t pcb_pa);

/** Builds a TB-miss marker record. */
Record MakeTlbMiss(uint32_t vaddr, bool kernel);

/** Builds an exception-dispatch marker record. */
Record MakeException(uint8_t vector);

/** Builds an instruction-decode marker record. */
Record MakeOpcode(uint32_t pc, uint8_t opcode, bool kernel);

/**
 * Builds a capture-gap marker: `lost` records were dropped here because
 * the drain sink kept failing (HMTT-style, so consumers can detect the
 * gap and resynchronize instead of silently analyzing a torn stream).
 * `event` numbers the gaps within one capture.
 */
Record MakeLoss(uint32_t lost, uint16_t event);

/**
 * True when every field of `r` is an encoding this library can produce.
 * The scanner vets every record of a CRC-clean chunk with it, so a
 * corrupt type byte never reaches per-type arrays.
 */
bool IsPlausibleRecord(const Record& r);

/** Packs a record into 8 bytes (little-endian). */
void PackRecord(const Record& r, uint8_t out[kRecordBytes]);

/** Unpacks a record from 8 bytes. */
Record UnpackRecord(const uint8_t in[kRecordBytes]);

}  // namespace atum::trace

#endif  // ATUM_TRACE_RECORD_H_
