/**
 * @file
 * Kernel container: the instruction stream plus the dispatch-time
 * register preload convention and argument metadata.
 *
 * Register preload convention (mirrors Gen thread payload):
 *   r0        header: dw0 = flat workgroup id, dw1 = subgroup index
 *             within the group, dw2 = local size (work items per group),
 *             dw3 = global size, dw4 = number of groups, dw5 = subgroups
 *             per group, dw6 = SLM size in bytes, dw7 = flat global
 *             subgroup index.
 *   r1..      per-channel global linear work-item id (UD vector,
 *             ceil(simdWidth*4/32) registers).
 *   next..    per-channel local work-item id within the group (UD
 *             vector, same register count).
 *   next..    kernel arguments, one full register each, element 0 holds
 *             the value (scalars and buffer base addresses are UD/D/F).
 *   next..    free for temporaries (managed by the builder).
 */

#ifndef IWC_ISA_KERNEL_HH
#define IWC_ISA_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace iwc::isa
{

/** Kind of a kernel argument. */
enum class ArgKind : std::uint8_t
{
    Buffer,  ///< global memory buffer base address (UD)
    ScalarU, ///< 32-bit unsigned scalar
    ScalarI, ///< 32-bit signed scalar
    ScalarF, ///< 32-bit float scalar
};

/** Metadata for one kernel argument. */
struct ArgInfo
{
    std::string name;
    ArgKind kind = ArgKind::ScalarU;
    std::uint8_t reg = 0; ///< GRF register the argument is preloaded into
};

/**
 * An executable kernel: a validated instruction stream with its SIMD
 * width and preload/argument layout.
 */
class Kernel
{
  public:
    Kernel() = default;
    Kernel(std::string name, unsigned simd_width,
           std::vector<Instruction> instructions, std::vector<ArgInfo> args,
           unsigned first_temp_reg, unsigned regs_used,
           unsigned slm_bytes = 0);

    const std::string &name() const { return name_; }
    unsigned simdWidth() const { return simdWidth_; }
    const std::vector<Instruction> &instructions() const { return instrs_; }
    const Instruction &instr(std::uint32_t ip) const { return instrs_[ip]; }
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(instrs_.size());
    }

    const std::vector<ArgInfo> &args() const { return args_; }
    unsigned numArgs() const { return static_cast<unsigned>(args_.size()); }

    /** First GRF register available for temporaries. */
    unsigned firstTempReg() const { return firstTempReg_; }

    /** Highest GRF register used plus one. */
    unsigned regsUsed() const { return regsUsed_; }

    /** Shared-local-memory bytes required per workgroup. */
    unsigned slmBytes() const { return slmBytes_; }

    /** Number of GRF registers holding one UD per-channel vector. */
    unsigned
    idRegCount() const
    {
        return (simdWidth_ * 4 + kGrfRegBytes - 1) / kGrfRegBytes;
    }

    /** Register holding per-channel global work-item ids. */
    unsigned globalIdReg() const { return 1; }

    /** Register holding per-channel local work-item ids. */
    unsigned localIdReg() const { return 1 + idRegCount(); }

    /**
     * Structural validation: branch targets in range and consistent,
     * operand registers within the GRF, widths legal. Calls fatal() on
     * violation (a malformed kernel is a user error).
     */
    void validate() const;

    /**
     * Stable 64-bit digest of everything that determines execution:
     * SIMD width, every instruction field, argument layout, and SLM
     * size (the display name is excluded). Serialized field-by-field,
     * so the value is independent of struct padding and identical
     * across builds — the PredecodeCache key and
     * RunResult::kernelDigest.
     */
    std::uint64_t digest() const;

  private:
    std::string name_;
    unsigned simdWidth_ = 16;
    std::vector<Instruction> instrs_;
    std::vector<ArgInfo> args_;
    unsigned firstTempReg_ = 0;
    unsigned regsUsed_ = 0;
    unsigned slmBytes_ = 0;
};

} // namespace iwc::isa

#endif // IWC_ISA_KERNEL_HH
