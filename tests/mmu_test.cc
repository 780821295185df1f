// Unit tests for the MMU: TLB behaviour, table walks, protection checks,
// modified-bit maintenance, and the PTE-reference reporting ATUM traces.

#include <gtest/gtest.h>

#include "mem/physical_memory.h"
#include "mmu/mmu.h"
#include "ucode/control_store.h"

namespace atum::mmu {
namespace {

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest() : mem_(64 * kPageBytes), mmu_(mem_, cs_)
    {
        // P0 page table at physical 0x1000 covering 16 pages.
        mmu_.SetRegion(Region::kP0, {0x1000, 16});
        // S0 table at 0x2000, 8 pages, identity-ish map to frames 20..27.
        mmu_.SetRegion(Region::kS0, {0x2000, 8});
        for (uint32_t p = 0; p < 8; ++p)
            mem_.Write32(0x2000 + 4 * p, MakePte(20 + p, false, true));
        mmu_.set_enabled(true);
    }

    void MapP0(uint32_t page, uint32_t pfn, bool user = true,
               bool writable = true)
    {
        mem_.Write32(0x1000 + 4 * page, MakePte(pfn, user, writable));
    }

    PhysicalMemory mem_;
    ucode::ControlStore cs_;
    Mmu mmu_;
};

TEST_F(MmuTest, DisabledIsIdentity)
{
    mmu_.set_enabled(false);
    const auto res = mmu_.Translate(0x12345, false, false);
    EXPECT_EQ(res.status, XlateStatus::kOk);
    EXPECT_EQ(res.paddr, 0x12345u);
    EXPECT_FALSE(res.tb_miss);
}

TEST_F(MmuTest, WalkThenHit)
{
    MapP0(3, 7);
    const uint32_t va = 3 * kPageBytes + 0x21;
    auto res = mmu_.Translate(va, false, false);
    EXPECT_EQ(res.status, XlateStatus::kOk);
    EXPECT_EQ(res.paddr, 7 * kPageBytes + 0x21);
    EXPECT_TRUE(res.tb_miss);
    EXPECT_GT(res.ucycles, 0u);
    // Second access: TB hit, no walk cost.
    res = mmu_.Translate(va + 4, false, false);
    EXPECT_EQ(res.status, XlateStatus::kOk);
    EXPECT_FALSE(res.tb_miss);
    EXPECT_EQ(res.ucycles, 0u);
    EXPECT_EQ(mmu_.pte_reads(), 1u);
}

TEST_F(MmuTest, InvalidPteIsTnv)
{
    const auto res = mmu_.Translate(5 * kPageBytes, false, false);
    EXPECT_EQ(res.status, XlateStatus::kTnv);
}

TEST_F(MmuTest, LengthViolationIsAcv)
{
    const auto res = mmu_.Translate(16 * kPageBytes, false, false);
    EXPECT_EQ(res.status, XlateStatus::kAcv);
}

TEST_F(MmuTest, ReservedRegionIsAcv)
{
    const auto res = mmu_.Translate(0xc0000000u, false, true);
    EXPECT_EQ(res.status, XlateStatus::kAcv);
}

TEST_F(MmuTest, UserCannotTouchKernelPage)
{
    MapP0(2, 9, /*user=*/false);
    EXPECT_EQ(mmu_.Translate(2 * kPageBytes, false, false).status,
              XlateStatus::kAcv);
    EXPECT_EQ(mmu_.Translate(2 * kPageBytes, false, true).status,
              XlateStatus::kOk);
}

TEST_F(MmuTest, WriteToReadOnlyIsAcv)
{
    MapP0(1, 8, true, /*writable=*/false);
    EXPECT_EQ(mmu_.Translate(kPageBytes, false, false).status,
              XlateStatus::kOk);
    EXPECT_EQ(mmu_.Translate(kPageBytes, true, false).status,
              XlateStatus::kAcv);
}

TEST_F(MmuTest, ProtectionCheckedOnTbHitToo)
{
    MapP0(1, 8, true, false);
    ASSERT_EQ(mmu_.Translate(kPageBytes, false, false).status,
              XlateStatus::kOk);  // loads TB
    EXPECT_EQ(mmu_.Translate(kPageBytes, true, false).status,
              XlateStatus::kAcv);  // write denied from cached entry
}

TEST_F(MmuTest, WriteSetsModifiedBitInMemory)
{
    MapP0(4, 10);
    ASSERT_EQ(mmu_.Translate(4 * kPageBytes, false, false).status,
              XlateStatus::kOk);
    EXPECT_EQ(mem_.Read32(0x1000 + 16) & kPteModified, 0u);
    ASSERT_EQ(mmu_.Translate(4 * kPageBytes, true, false).status,
              XlateStatus::kOk);
    EXPECT_NE(mem_.Read32(0x1000 + 16) & kPteModified, 0u);
}

TEST_F(MmuTest, CleanToDirtyRewalksOnce)
{
    MapP0(4, 10);
    ASSERT_EQ(mmu_.Translate(4 * kPageBytes, false, false).status,
              XlateStatus::kOk);
    const uint64_t walks_before = mmu_.pte_reads();
    // First write re-walks (to set M); second write hits a dirty entry.
    ASSERT_EQ(mmu_.Translate(4 * kPageBytes, true, false).status,
              XlateStatus::kOk);
    ASSERT_EQ(mmu_.Translate(4 * kPageBytes + 8, true, false).status,
              XlateStatus::kOk);
    EXPECT_EQ(mmu_.pte_reads(), walks_before + 1);
}

TEST_F(MmuTest, PteReferenceReportedToControlStore)
{
    MapP0(0, 6);
    struct PteCounter : ucode::Patch {
        unsigned pte_refs = 0;
        uint32_t OnMemAccess(const ucode::MemAccess& a) override
        {
            if (a.kind == ucode::MemAccessKind::kPte) {
                ++pte_refs;
                EXPECT_EQ(a.vaddr, 0x1000u);  // physical PTE address
                EXPECT_EQ(a.vaddr, a.paddr);
            }
            return 0;
        }
    } patch;
    cs_.Install(patch);
    ASSERT_EQ(mmu_.Translate(0, false, false).status, XlateStatus::kOk);
    cs_.Remove();
    EXPECT_EQ(patch.pte_refs, 1u);
}

TEST_F(MmuTest, TlbMissReachesThePatch)
{
    MapP0(0, 6);
    struct MissCounter : ucode::Patch {
        unsigned misses = 0;
        uint32_t OnTlbMiss(uint32_t va, bool kernel) override
        {
            EXPECT_EQ(va, 0u);
            EXPECT_FALSE(kernel);
            ++misses;
            return 0;
        }
    } patch;
    cs_.Install(patch);
    mmu_.Translate(0, false, false);
    mmu_.Translate(0, false, false);  // hit: no second fire
    cs_.Remove();
    EXPECT_EQ(patch.misses, 1u);
}

TEST_F(MmuTest, S0Translation)
{
    const uint32_t va = 0x80000000u + 2 * kPageBytes + 5;
    const auto res = mmu_.Translate(va, false, true);
    EXPECT_EQ(res.status, XlateStatus::kOk);
    EXPECT_EQ(res.paddr, 22 * kPageBytes + 5);
    // User access to a kernel-only S0 page is denied.
    EXPECT_EQ(mmu_.Translate(va, false, false).status, XlateStatus::kAcv);
}

TEST_F(MmuTest, P1RegionUsesItsOwnTable)
{
    mmu_.SetRegion(Region::kP1, {0x3000, 4});
    mem_.Write32(0x3000 + 4 * 2, MakePte(30, true, true));
    const uint32_t va = 0x40000000u + 2 * kPageBytes;
    const auto res = mmu_.Translate(va, false, false);
    EXPECT_EQ(res.status, XlateStatus::kOk);
    EXPECT_EQ(res.paddr, 30 * kPageBytes);
}

// --- raw TLB tests ------------------------------------------------------

TEST(Tlb, InsertLookupInvalidate)
{
    Tlb tlb(4, 2);
    TlbEntry e;
    e.vpn = 100;
    e.pfn = 7;
    tlb.Insert(e);
    ASSERT_NE(tlb.Lookup(100), nullptr);
    EXPECT_EQ(tlb.Lookup(100)->pfn, 7u);
    tlb.InvalidateVa(100 << kPageShift);
    EXPECT_EQ(tlb.Lookup(100), nullptr);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(1, 2);  // one set, two ways
    TlbEntry a, b, c;
    a.vpn = 1;
    b.vpn = 2;
    c.vpn = 3;
    tlb.Insert(a);
    tlb.Insert(b);
    ASSERT_NE(tlb.Lookup(1), nullptr);  // touch 1 so 2 becomes LRU
    tlb.Insert(c);                      // evicts 2
    EXPECT_NE(tlb.Lookup(1), nullptr);
    EXPECT_EQ(tlb.Lookup(2), nullptr);
    EXPECT_NE(tlb.Lookup(3), nullptr);
}

TEST(Tlb, FlushProcessKeepsSystemEntries)
{
    Tlb tlb(8, 2);
    TlbEntry user, sys;
    user.vpn = 10;
    sys.vpn = 0x80000000u >> kPageShift;
    tlb.Insert(user);
    tlb.Insert(sys);
    EXPECT_EQ(tlb.FlushProcessEntries(), 1u);
    EXPECT_EQ(tlb.Lookup(10), nullptr);
    EXPECT_NE(tlb.Lookup(0x80000000u >> kPageShift), nullptr);
}

TEST(Tlb, InvalidateAll)
{
    Tlb tlb(8, 2);
    for (uint32_t v = 0; v < 8; ++v) {
        TlbEntry e;
        e.vpn = v;
        tlb.Insert(e);
    }
    tlb.InvalidateAll();
    for (uint32_t v = 0; v < 8; ++v)
        EXPECT_EQ(tlb.Lookup(v), nullptr);
}

TEST(Tlb, MissCounting)
{
    Tlb tlb(4, 1);
    tlb.Lookup(5);
    TlbEntry e;
    e.vpn = 5;
    tlb.Insert(e);
    tlb.Lookup(5);
    EXPECT_EQ(tlb.lookups(), 2u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbDeath, BadGeometryIsFatal)
{
    EXPECT_DEATH(Tlb(3, 2), "geometry");
    EXPECT_DEATH(Tlb(0, 2), "geometry");
}

}  // namespace
}  // namespace atum::mmu
