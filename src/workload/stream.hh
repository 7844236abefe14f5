/**
 * @file
 * Deterministic synthetic instruction stream.
 *
 * MicroOp i is a pure function of (profile, totalInstrs, i): the stream
 * generator uses a counter-based RNG so the identical "program" is
 * replayed on every microarchitecture configuration, and simulation can
 * be chunked into intervals without storing the trace.
 *
 * Structure:
 *  - Execution position i maps to a phase segment through the profile's
 *    looping phase script (fraction i/totalInstrs).
 *  - Dynamic basic blocks of the segment's average length end in a
 *    control micro-op; block ids map onto a finite static code footprint
 *    so branch predictors see recurring PCs.
 *  - Loads/stores address a per-segment data footprint through a mix of
 *    sequential streams and uniform random accesses; the effective
 *    footprint is modulated sinusoidally within a segment, which is one
 *    of the sources of time-varying cache behaviour.
 *
 * Two access paths produce bit-identical micro-ops:
 *  - at(i): random access, re-deriving every constant per call — the
 *    reference semantics;
 *  - Cursor: sequential streaming decode for the simulator hot path.
 *    All segment- and quantisation-step-derived constants (block
 *    length, loop period, static/hot block counts, code/data region
 *    hashes, the modulated data footprint and the renormalised class
 *    mix) are cached in a DecodeContext and only re-derived at the
 *    boundaries where they actually change; per-block PC bases are
 *    cached so block-address hashing runs once per block instead of
 *    once per instruction.
 */

#ifndef WAVEDYN_WORKLOAD_STREAM_HH
#define WAVEDYN_WORKLOAD_STREAM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hh"
#include "workload/instruction.hh"
#include "workload/profile.hh"

namespace wavedyn
{

/** Generates the committed micro-op stream of one benchmark run. */
class InstructionStream
{
  public:
    /**
     * @param profile the benchmark to synthesise
     * @param totalInstrs nominal dynamic length of the run (defines the
     *        phase-script time base; indices beyond it wrap).
     */
    InstructionStream(const BenchmarkProfile &profile,
                      std::uint64_t totalInstrs);

    /**
     * Everything the per-instruction decode derives from the active
     * (segment, quantisation step) pair. A context is a pure function
     * of (profile, segment index, step), so caching one across the
     * indices that share it cannot change any micro-op.
     */
    struct DecodeContext
    {
        const PhaseSegment *seg = nullptr;
        std::size_t segIdx = 0;
        std::uint32_t bucket = 0;    //!< quantisation step (0..31)
        std::uint64_t blockLen = 2;  //!< dynamic basic block length
        std::uint64_t blockBytes = 8;
        std::uint64_t loopPeriod = 2;
        std::uint64_t span = 8;      //!< blocks per full inner loop
        std::uint64_t staticBlocks = 1;
        std::uint64_t hotBlocks = 4;
        std::uint64_t codeRegion = 0;
        std::uint64_t dataRegion = 0;
        std::uint64_t footprint = 8192; //!< modulated, step-quantised
        std::uint64_t quarter = 2048;   //!< footprint / 4
        std::uint64_t hotBytes = 2048;  //!< hot region of random accesses
        std::uint64_t streamWindow = 8192; //!< per-stream cycling window
        // Cumulative non-control class-mix thresholds, compared in
        // declaration order against one uniform draw.
        double tLoad = 0.0;
        double tStore = 0.0;
        double tFpAlu = 0.0;
        double tFpMul = 0.0;
        double tIntMul = 0.0;
    };

    /** The micro-op at dynamic index i. Pure function of (this, i). */
    MicroOp at(std::uint64_t i) const;

    /** Context governing index i (reference path; derived per call). */
    DecodeContext contextAt(std::uint64_t i) const;

    /** Segment index active at dynamic index i. */
    std::size_t segmentAt(std::uint64_t i) const;

    /**
     * Effective (modulated) data footprint in bytes at index i;
     * exposed for tests and diagnostics.
     */
    std::uint64_t dataFootprintAt(std::uint64_t i) const;

    std::uint64_t totalInstructions() const { return total; }

    const BenchmarkProfile &profile() const { return prof; }

    /**
     * Sequential streaming decoder.
     *
     * next() returns exactly at(index()) and advances — the bit-
     * identity is pinned by tests/workload/cursor_test.cc — but
     * re-derives the DecodeContext only when the (segment,
     * quantisation step) key changes. The boundary where the key
     * changes is found by binary search against the same locate()
     * arithmetic the reference path uses, so no analytic inversion of
     * the floating-point phase script is ever trusted.
     */
    class Cursor
    {
      public:
        explicit Cursor(const InstructionStream &stream,
                        std::uint64_t start = 0);

        /** Micro-op at index(), then advance by one. */
        MicroOp next();

        /** Index the next call to next() will produce. */
        std::uint64_t index() const { return idx; }

        /** Reposition; caches refresh lazily on the next next(). */
        void seek(std::uint64_t i);

      private:
        void refresh();

        const InstructionStream *src;
        std::uint64_t idx = 0;
        std::uint64_t boundary = 0; //!< first index the ctx is stale at
        DecodeContext ctx;
        bool ctxValid = false;
        bool blockValid = false;
        std::uint64_t curBlock = 0;
        std::uint64_t curBase = 0;  //!< code address of curBlock
        std::uint64_t nextBase = 0; //!< code address of curBlock + 1
    };

  private:
    /** Segment and local progress for index i. */
    void locate(std::uint64_t i, std::size_t &seg, double &local) const;

    /** (segment, quantisation step) pair governing index i. */
    std::pair<std::size_t, std::uint32_t> keyAt(std::uint64_t i) const;

    /** Derive the full context of a (segment, step) pair. */
    DecodeContext makeContext(std::size_t segIdx,
                              std::uint32_t bucket) const;

    /** Code address of dynamic block @p block under @p ctx. */
    std::uint64_t blockBase(const DecodeContext &ctx,
                            std::uint64_t block) const;

    /**
     * Produce micro-op i given its context and the code addresses of
     * its block and the next (branch target). The one decode routine
     * behind both at(i) and Cursor::next().
     */
    MicroOp decode(std::uint64_t i, const DecodeContext &ctx,
                   std::uint64_t pcBase, std::uint64_t targetBase) const;

    /** Rounded dynamic block length of a segment (>= 2). */
    static std::uint64_t blockLenOf(const PhaseSegment &s);

    const BenchmarkProfile &prof;
    std::uint64_t total;
    CounterRng rng;
};

/**
 * The first @p count micro-ops of @p stream, decoded by one Cursor:
 * element i is exactly at(i). A run shape is decoded once into such an
 * array, which every pipeline simulating that shape then reads at the
 * same time (sim/batch.hh); nothing writes it after this returns.
 */
std::vector<MicroOp> decodeOps(const InstructionStream &stream,
                               std::uint64_t count);

} // namespace wavedyn

#endif // WAVEDYN_WORKLOAD_STREAM_HH
