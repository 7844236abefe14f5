/**
 * @file
 * Architectural Vulnerability Factor accounting (Mukherjee et al.,
 * MICRO'03; Biswas et al., ISCA'05 — the methods the paper builds in).
 *
 * AVF of a structure over a window =
 *     (ACE bit-cycles resident) / (total bits x cycles).
 *
 * We account at entry granularity with per-class ACE fractions: an
 * instruction-queue entry waiting for operands holds mostly-ACE state;
 * once issued its payload is performance-neutral. ROB entries are ACE
 * until their result is written back, then a smaller fraction (the
 * not-yet-committed result) remains ACE. LSQ store entries stay ACE to
 * commit (their data will be written to memory); load entries are
 * partially ACE until completion.
 */

#ifndef WAVEDYN_AVF_ESTIMATOR_HH
#define WAVEDYN_AVF_ESTIMATOR_HH

#include <cstddef>
#include <cstdint>

#include "workload/instruction.hh"

namespace wavedyn
{

/**
 * Per-class ACE fractions for the tracked structures: table reads,
 * inlined into the pipeline's per-event accounting. Tables are in
 * InstrClass order: IntAlu, IntMul, FpAlu, FpMul, Load, Store,
 * Branch, Call, Return.
 */
struct AceWeights
{
    /** IQ entry, operands outstanding. */
    double
    iqWaiting(InstrClass c) const
    {
        // Waiting entries hold live source tags, opcode and immediate
        // data; mispredict-recovery state of control ops is partially
        // un-ACE.
        static constexpr double w[instrClassCount] = {
            0.70, 0.85, 0.80, 0.85, 0.80, 0.90, 0.45, 0.45, 0.45};
        return w[static_cast<std::size_t>(c)];
    }

    /** ROB entry, result not yet written back. */
    double
    robInFlight(InstrClass c) const
    {
        static constexpr double w[instrClassCount] = {
            0.55, 0.55, 0.55, 0.55, 0.65, 0.75, 0.35, 0.35, 0.35};
        return w[static_cast<std::size_t>(c)];
    }

    /** ROB entry, completed but not committed. */
    double
    robCompleted(InstrClass c) const
    {
        // Result bits await commit; control results are consumed
        // already.
        static constexpr double w[instrClassCount] = {
            0.30, 0.30, 0.30, 0.30, 0.30, 0.45, 0.10, 0.10, 0.10};
        return w[static_cast<std::size_t>(c)];
    }

    /** LSQ entry (loads until completion, stores until commit). */
    double
    lsq(InstrClass c) const
    {
        // Stores: address + data reach memory. Loads: address ACE,
        // data slot ACE once filled.
        static constexpr double w[instrClassCount] = {
            0.0, 0.0, 0.0, 0.0, 0.55, 0.90, 0.0, 0.0, 0.0};
        return w[static_cast<std::size_t>(c)];
    }
};

/**
 * Accumulates ACE bit-cycles for one structure.
 *
 * The pipeline maintains the current ACE-weighted occupancy
 * incrementally (O(1) per event) and calls tick() once per cycle.
 */
class AvfAccumulator
{
  public:
    /** @param entries structure capacity in entries. */
    explicit AvfAccumulator(unsigned entries);

    /** Add w ACE-entries to the current occupancy. */
    void occupy(double w) { current += w; }

    /** Remove w ACE-entries from the current occupancy. */
    void release(double w)
    {
        current -= w;
        if (current < 0.0)
            current = 0.0;
    }

    /** Account one cycle at the current occupancy. */
    void
    tick()
    {
        aceCycles += current;
        ++cycles;
    }

    /**
     * Account @p k cycles at the current occupancy, bit-identically
     * to k successive tick() calls. FP accumulation is not
     * associative — aceCycles + k * current generally differs from k
     * repeated adds in the last ulp — so the adds are replayed, with
     * an early exit once the sum reaches its fixed point (when one
     * more add no longer changes the value, every further add is the
     * same bitwise no-op). current is non-negative by construction
     * (occupy adds non-negative ACE weights, release clamps at zero),
     * so a zero occupancy leaves the accumulated sum — which is never
     * -0.0 for the same reason — bitwise untouched.
     */
    void
    tickMany(std::uint64_t k)
    {
        cycles += k;
        if (current == 0.0)
            return;
        for (std::uint64_t i = 0; i < k; ++i) {
            double next = aceCycles + current;
            if (next == aceCycles)
                return;
            aceCycles = next;
        }
    }

    /**
     * tickMany(k) on three accumulators at once. Each accumulator's
     * add sequence is its own independent dependence chain; replaying
     * them in one interleaved loop overlaps the three FP-add latency
     * chains instead of serialising them, which is what makes batch
     * idle-cycle skipping cheap (sim/pipeline.cc skipCycles). The
     * plain unconditional add is bitwise the reference semantics —
     * scalar tick() adds every cycle with no early exit.
     */
    static void
    tickMany(AvfAccumulator &a, AvfAccumulator &b, AvfAccumulator &c,
             std::uint64_t k)
    {
        a.cycles += k;
        b.cycles += k;
        c.cycles += k;
        double av = a.current, bv = b.current, cv = c.current;
        if (av == 0.0 && bv == 0.0 && cv == 0.0)
            return;
        double as = a.aceCycles, bs = b.aceCycles, cs = c.aceCycles;
        for (std::uint64_t i = 0; i < k; ++i) {
            as += av;
            bs += bv;
            cs += cv;
        }
        a.aceCycles = as;
        b.aceCycles = bs;
        c.aceCycles = cs;
    }

    /** AVF over the accumulated window, in [0, 1]. */
    double value() const;

    /** Current instantaneous ACE-weighted occupancy in entries. */
    double occupancy() const { return current; }

    /** Reset the window (keeps the live occupancy). */
    void resetWindow();

    std::uint64_t windowCycles() const { return cycles; }

  private:
    unsigned entries;
    double current = 0.0;
    double aceCycles = 0.0;
    std::uint64_t cycles = 0;
};

} // namespace wavedyn

#endif // WAVEDYN_AVF_ESTIMATOR_HH
