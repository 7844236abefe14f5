/**
 * @file
 * The simulation driver: decode once, simulate many.
 *
 * A design-space sweep simulates the *same* (benchmark, samples,
 * intervalInstrs, dvm) run under many machine configurations.
 * simulateBatch() runs N such configurations as N pipeline lanes in
 * interval-grained lockstep; simulate() is its one-lane case.
 *
 *  - one SharedOpWindow decodes the instruction stream once and feeds
 *    every lane (workload/shared_decode.hh);
 *  - each lane arms the pipeline's idle-cycle fast-forward, which
 *    jumps over provably inert cycles with exact accounting (see the
 *    hot-path notes in sim/pipeline.hh);
 *  - the driver's per-lane bookkeeping (interval start cycles, power
 *    models, result assembly) is laid out in lane-major arrays.
 *
 * Bit-identity contract: for every lane, at every batch width,
 * simulateBatch() returns byte-for-byte the SimResult that lane's
 * configuration produces when simulated alone, cycle by cycle. The
 * lockstep step is exactly one runInstructions() call per lane (the
 * warmup, then each interval) — never a finer quantum, because
 * doCommit() caps commits at the call target, so an artificial
 * sub-interval boundary would change machine state. Pinned against a
 * naive oracle by tests/sim/batch_test.cc and by the golden report
 * tests.
 */

#ifndef WAVEDYN_SIM_BATCH_HH
#define WAVEDYN_SIM_BATCH_HH

#include <cstddef>
#include <vector>

#include "dvm/controller.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/profile.hh"

namespace wavedyn
{

/**
 * Simulate every configuration in @p configs over the same run shape,
 * sharing one decode; results are indexed like @p configs. Publishes
 * the lanes' summed cycles and idle-skipped cycles to the
 * `sim.cycles` / `sim.idle_skipped_cycles` counters (observe-only).
 */
std::vector<SimResult>
simulateBatch(const BenchmarkProfile &bench,
              const std::vector<SimConfig> &configs,
              std::size_t numIntervals, std::size_t intervalInstrs,
              const DvmConfig &dvm = {});

/**
 * Process-global batch width: how many cache-missing tasks sharing a
 * run key the RunScheduler folds into one simulateBatch() call.
 * Mirrors the currentJobs()/setJobs() pattern; unset (0) means
 * kDefaultBatchWidth. Results are byte-identical at every width —
 * the knob only moves throughput.
 */
unsigned globalBatchWidth();
void setGlobalBatchWidth(unsigned width);

/** Built-in batch width, used while none is set. */
inline constexpr unsigned kDefaultBatchWidth = 16;

} // namespace wavedyn

#endif // WAVEDYN_SIM_BATCH_HH
