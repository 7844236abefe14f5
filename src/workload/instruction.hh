/**
 * @file
 * Micro-operation record produced by the synthetic workload generator
 * and consumed by the timing model.
 *
 * The simulator is trace driven: the generator emits the committed
 * instruction stream of the "program", identical for every
 * microarchitecture configuration (the paper runs the same SimPoint
 * region of each SPEC benchmark on every design point). Wrong-path
 * effects appear as front-end redirect bubbles rather than as explicit
 * wrong-path micro-ops.
 */

#ifndef WAVEDYN_WORKLOAD_INSTRUCTION_HH
#define WAVEDYN_WORKLOAD_INSTRUCTION_HH

#include <cstddef>
#include <cstdint>

namespace wavedyn
{

/** Instruction classes modelled by the pipeline. */
enum class InstrClass : std::uint8_t
{
    IntAlu,
    IntMul,
    FpAlu,
    FpMul,
    Load,
    Store,
    Branch,
    Call,
    Return,
};

/** Number of InstrClass values. */
constexpr std::size_t instrClassCount = 9;

/** Short mnemonic for an instruction class. */
const char *instrClassName(InstrClass c);

// Per-class properties are table reads in InstrClass order, inlined
// into the pipeline's per-op paths.

/** True for classes executed by the floating-point pools. */
inline bool
isFp(InstrClass c)
{
    static constexpr bool t[instrClassCount] = {
        false, false, true, true, false, false, false, false, false};
    return t[static_cast<std::size_t>(c)];
}

/** True for memory classes (Load/Store). */
inline bool
isMem(InstrClass c)
{
    static constexpr bool t[instrClassCount] = {
        false, false, false, false, true, true, false, false, false};
    return t[static_cast<std::size_t>(c)];
}

/** True for control classes (Branch/Call/Return). */
inline bool
isControl(InstrClass c)
{
    static constexpr bool t[instrClassCount] = {
        false, false, false, false, false, false, true, true, true};
    return t[static_cast<std::size_t>(c)];
}

/**
 * One micro-op of the committed stream.
 *
 * Dependencies are encoded as backward distances in the dynamic
 * instruction stream: dep1/dep2 = k means "depends on the instruction k
 * positions earlier" (0 means no dependency).
 */
struct MicroOp
{
    std::uint64_t pc = 0;        //!< fetch address
    std::uint64_t effAddr = 0;   //!< effective address (Load/Store)
    std::uint32_t dep1 = 0;      //!< backward distance of source 1
    std::uint32_t dep2 = 0;      //!< backward distance of source 2
    InstrClass cls = InstrClass::IntAlu;
    bool branchTaken = false;    //!< resolved direction (control only)
    std::uint64_t branchTarget = 0; //!< resolved target (control only)
};

/** Fixed execution latency of a class; loads add memory latency. */
inline unsigned
executionLatency(InstrClass c)
{
    // Loads add the cache model's latency; stores generate an address
    // and write their data at commit.
    static constexpr unsigned char t[instrClassCount] = {
        1, 7, 4, 12, 0, 1, 1, 1, 1};
    return t[static_cast<std::size_t>(c)];
}

} // namespace wavedyn

#endif // WAVEDYN_WORKLOAD_INSTRUCTION_HH
