/**
 * @file
 * The simulation driver: decode once, simulate many.
 *
 * A design-space sweep simulates the *same* run shape — (benchmark,
 * samples, intervalInstrs) — under many machine configurations and
 * DVM policies. decodeRunShape() decodes that shape's instruction
 * stream once into an immutable MicroOp array; simulateDecoded() runs
 * one configuration over it, and any number of them may read one
 * array at the same time from any threads. The scheduler makes each
 * run its own pool task over its shape's decode (exec/scheduler.hh);
 * simulate() decodes and runs one configuration; simulateBatch() runs
 * several in turn over one decode.
 *
 * Each run arms the pipeline's idle-cycle fast-forward, which jumps
 * over provably inert cycles with exact accounting (see the hot-path
 * notes in sim/pipeline.hh).
 *
 * Bit-identity contract: a run's SimResult is byte-for-byte the one
 * its configuration produces when simulated alone, cycle by cycle,
 * however many runs share its decode and whichever thread runs it —
 * runs share nothing but the read-only ops. Pinned against a naive
 * oracle by tests/sim/batch_test.cc and by the golden report tests.
 */

#ifndef WAVEDYN_SIM_BATCH_HH
#define WAVEDYN_SIM_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dvm/controller.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/instruction.hh"
#include "workload/profile.hh"

namespace wavedyn
{

/**
 * Ops a pipeline of @p cfg may fetch past its last commit: a full ROB
 * plus a full fetch queue.
 */
std::uint64_t fetchAhead(const SimConfig &cfg);

/**
 * Decode one run shape: the warmup, the numIntervals x intervalInstrs
 * body and @p ahead more ops, which must be at least the largest
 * fetchAhead() among the configurations that will read it.
 */
std::vector<MicroOp> decodeRunShape(const BenchmarkProfile &bench,
                                    std::size_t numIntervals,
                                    std::size_t intervalInstrs,
                                    std::uint64_t ahead);

/**
 * Simulate @p cfg over @p ops, a decodeRunShape() of the same
 * (bench, numIntervals, intervalInstrs) with ahead >= fetchAhead(cfg).
 * Publishes the run's cycles, idle-skipped cycles, issue scans and
 * idle issue scans to the `sim.cycles`, `sim.idle_skipped_cycles`,
 * `sim.issue_scans` and `sim.issue_idle_scans` counters
 * (observe-only). An issue scan is one walk of the ready bits, made
 * by every issue stage that is not idle; an idle scan is a walk that
 * found nothing ready inside the scan cap, which leaves the stage
 * idle until a ready bit is set (sim/pipeline.hh).
 */
SimResult simulateDecoded(const std::vector<MicroOp> &ops,
                          const SimConfig &cfg, std::size_t numIntervals,
                          std::size_t intervalInstrs,
                          const DvmConfig &dvm = {});

/**
 * Simulate every configuration in @p configs, one after another, over
 * one decode of the run shape; results are indexed like @p configs.
 */
std::vector<SimResult>
simulateBatch(const BenchmarkProfile &bench,
              const std::vector<SimConfig> &configs,
              std::size_t numIntervals, std::size_t intervalInstrs,
              const DvmConfig &dvm = {});

/**
 * No effect: every cache-missing run is its own one-run task, so
 * globalBatchWidth() is always 1 and setGlobalBatchWidth() ignores its
 * argument. Kept only so callers written against the former lockstep
 * batch width still build.
 */
unsigned globalBatchWidth();
void setGlobalBatchWidth(unsigned width);

} // namespace wavedyn

#endif // WAVEDYN_SIM_BATCH_HH
