#ifndef ATUM_UCODE_CONTROL_STORE_H_
#define ATUM_UCODE_CONTROL_STORE_H_

/**
 * @file
 * The patchable control store.
 *
 * On the VAX 8200 the microcode lived in a writable control store, which is
 * what made ATUM possible: patch micro-routines could be spliced in at the
 * micro-instructions that perform memory references and context switches.
 * This class models exactly those splice points. The executor calls
 * Fire*() at each point; the installed Patch runs and returns how many
 * extra micro-cycles it consumed, which the machine adds to its cycle
 * count (tracing dilates execution, as on the real machine).
 *
 * At most one patch may be installed (the 8200's control store had one
 * continuation per patched micro-address, and a tracer patches all of its
 * points together).
 */

#include <cstdint>

#include "ucode/micro_op.h"

namespace atum::ucode {

/**
 * A microcode patch: one micro-routine per splice point. Each returns the
 * extra micro-cycles it consumed; an unoverridden point costs nothing.
 */
class Patch
{
  public:
    Patch() = default;
    Patch(const Patch&) = default;
    Patch& operator=(const Patch&) = default;
    virtual ~Patch() = default;

    /** Every architectural memory reference. */
    virtual uint32_t OnMemAccess(const MemAccess&) { return 0; }
    /** LDPCTX committed a new process context: pid and its PCB address. */
    virtual uint32_t OnContextSwitch(uint16_t /*pid*/, uint32_t /*pcb_pa*/)
    {
        return 0;
    }
    /** Translation buffer miss (before the PTE fetch). */
    virtual uint32_t OnTlbMiss(uint32_t /*vaddr*/, bool /*kernel*/)
    {
        return 0;
    }
    /** Exception/interrupt vectoring: the SCB vector index. */
    virtual uint32_t OnException(uint8_t /*vector*/) { return 0; }
    /** Opcode dispatch: instruction address and opcode byte. */
    virtual uint32_t OnDecode(uint32_t /*pc*/, uint8_t /*opcode*/,
                              bool /*kernel*/)
    {
        return 0;
    }
};

class ControlStore
{
  public:
    ControlStore() = default;
    ControlStore(const ControlStore&) = delete;
    ControlStore& operator=(const ControlStore&) = delete;

    /** Splices `patch` in; Fatal if a patch is already installed. The
     *  patch must outlive its installation. */
    void Install(Patch& patch);
    /** Removes the installed patch (no-op when none). */
    void Remove() { patch_ = nullptr; }
    /** The installed patch, or null. */
    const Patch* installed() const { return patch_; }

    /**
     * Splice-point entries, called by the executor. Each returns the extra
     * micro-cycles consumed by the patch (0 when unpatched).
     */
    uint32_t FireMemAccess(const MemAccess& access)
    {
        return patch_ ? patch_->OnMemAccess(access) : 0;
    }
    uint32_t FireContextSwitch(uint16_t pid, uint32_t pcb_pa)
    {
        return patch_ ? patch_->OnContextSwitch(pid, pcb_pa) : 0;
    }
    uint32_t FireTlbMiss(uint32_t vaddr, bool kernel)
    {
        return patch_ ? patch_->OnTlbMiss(vaddr, kernel) : 0;
    }
    uint32_t FireExceptionDispatch(uint8_t vector)
    {
        return patch_ ? patch_->OnException(vector) : 0;
    }
    uint32_t FireDecode(uint32_t pc, uint8_t opcode, bool kernel)
    {
        return patch_ ? patch_->OnDecode(pc, opcode, kernel) : 0;
    }

  private:
    Patch* patch_ = nullptr;
};

}  // namespace atum::ucode

#endif  // ATUM_UCODE_CONTROL_STORE_H_
