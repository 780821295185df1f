// Unit tests for the microcode layer: cost model and control-store
// patching semantics.

#include <gtest/gtest.h>

#include "ucode/control_store.h"
#include "ucode/micro_op.h"

namespace atum::ucode {
namespace {

TEST(MicroOp, AllKindsHaveNonzeroCost)
{
    for (unsigned k = 0; k < static_cast<unsigned>(MicroOpKind::kNumKinds);
         ++k) {
        EXPECT_GT(CostOf(static_cast<MicroOpKind>(k)), 0u);
    }
}

TEST(MicroOp, MemoryOpsCostMoreThanAlu)
{
    EXPECT_GE(CostOf(MicroOpKind::kDRead), CostOf(MicroOpKind::kAlu));
    EXPECT_GE(CostOf(MicroOpKind::kCtxLoad), CostOf(MicroOpKind::kDRead));
}

/** Records what each splice point saw and charges a distinct cost. */
struct RecordingPatch : Patch {
    MemAccess access;
    uint16_t pid = 0;
    uint32_t pcb_pa = 0;
    uint32_t tlb_vaddr = 0;
    bool tlb_kernel = false;
    uint8_t vector = 0;
    uint32_t pc = 0;
    uint8_t opcode = 0;
    bool decode_kernel = false;

    uint32_t OnMemAccess(const MemAccess& a) override
    {
        access = a;
        return 1;
    }
    uint32_t OnContextSwitch(uint16_t p, uint32_t pa) override
    {
        pid = p;
        pcb_pa = pa;
        return 2;
    }
    uint32_t OnTlbMiss(uint32_t va, bool kernel) override
    {
        tlb_vaddr = va;
        tlb_kernel = kernel;
        return 3;
    }
    uint32_t OnException(uint8_t v) override
    {
        vector = v;
        return 4;
    }
    uint32_t OnDecode(uint32_t p, uint8_t op, bool kernel) override
    {
        pc = p;
        opcode = op;
        decode_kernel = kernel;
        return 5;
    }
};

TEST(ControlStore, EmptyStoreFiresReturnZero)
{
    ControlStore cs;
    EXPECT_EQ(cs.installed(), nullptr);
    EXPECT_EQ(cs.FireMemAccess(MemAccess{}), 0u);
    EXPECT_EQ(cs.FireContextSwitch(1, 0x100), 0u);
    EXPECT_EQ(cs.FireTlbMiss(0x200, false), 0u);
    EXPECT_EQ(cs.FireExceptionDispatch(3), 0u);
    EXPECT_EQ(cs.FireDecode(0x300, 0x10, true), 0u);
}

TEST(ControlStore, DefaultSpliceMethodsCostNothing)
{
    ControlStore cs;
    Patch empty;
    cs.Install(empty);
    EXPECT_EQ(cs.installed(), &empty);
    EXPECT_EQ(cs.FireMemAccess(MemAccess{}), 0u);
    EXPECT_EQ(cs.FireContextSwitch(1, 0x100), 0u);
    EXPECT_EQ(cs.FireTlbMiss(0x200, false), 0u);
    EXPECT_EQ(cs.FireExceptionDispatch(3), 0u);
    EXPECT_EQ(cs.FireDecode(0x300, 0x10, true), 0u);
}

TEST(ControlStore, PatchReceivesArgumentsAndReturnsCost)
{
    ControlStore cs;
    RecordingPatch patch;
    cs.Install(patch);
    MemAccess access;
    access.vaddr = 0x1234;
    access.paddr = 0x5678;
    access.size = 4;
    access.kind = MemAccessKind::kWrite;
    access.kernel = true;
    EXPECT_EQ(cs.FireMemAccess(access), 1u);
    EXPECT_EQ(patch.access.vaddr, 0x1234u);
    EXPECT_EQ(patch.access.paddr, 0x5678u);
    EXPECT_EQ(patch.access.size, 4u);
    EXPECT_EQ(patch.access.kind, MemAccessKind::kWrite);
    EXPECT_TRUE(patch.access.kernel);

    EXPECT_EQ(cs.FireContextSwitch(7, 0x9000), 2u);
    EXPECT_EQ(patch.pid, 7u);
    EXPECT_EQ(patch.pcb_pa, 0x9000u);
    EXPECT_EQ(cs.FireTlbMiss(0x2000, true), 3u);
    EXPECT_EQ(patch.tlb_vaddr, 0x2000u);
    EXPECT_TRUE(patch.tlb_kernel);
    EXPECT_EQ(cs.FireExceptionDispatch(9), 4u);
    EXPECT_EQ(patch.vector, 9u);
}

TEST(ControlStore, DecodePatchReceivesOpcodeAndPc)
{
    ControlStore cs;
    RecordingPatch patch;
    cs.Install(patch);
    EXPECT_EQ(cs.FireDecode(0x1234, 0x10, true), 5u);
    EXPECT_EQ(patch.pc, 0x1234u);
    EXPECT_EQ(patch.opcode, 0x10);
    EXPECT_TRUE(patch.decode_kernel);
}

TEST(ControlStore, RemoveUnsplicesThePatch)
{
    ControlStore cs;
    RecordingPatch patch;
    cs.Install(patch);
    cs.Remove();
    EXPECT_EQ(cs.installed(), nullptr);
    EXPECT_EQ(cs.FireMemAccess(MemAccess{}), 0u);
    EXPECT_EQ(cs.FireDecode(0, 0, false), 0u);
    cs.Remove();  // no-op when nothing is installed
    cs.Install(patch);  // the freed slot takes a patch again
    EXPECT_EQ(cs.FireMemAccess(MemAccess{}), 1u);
}

TEST(ControlStoreDeath, SecondInstallIsFatal)
{
    ControlStore cs;
    RecordingPatch first;
    RecordingPatch second;
    cs.Install(first);
    EXPECT_DEATH(cs.Install(second), "already patched");
}

}  // namespace
}  // namespace atum::ucode
