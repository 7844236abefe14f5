/**
 * @file
 * Trace-producing simulation driver.
 *
 * Runs a benchmark on a machine configuration and samples per-interval
 * metrics — exactly the "workload dynamics" the paper's models predict:
 * a trace of N samples per run (N = 128 in the paper), in the
 * performance (CPI), power (watts) and reliability (AVF) domains.
 */

#ifndef WAVEDYN_SIM_SIMULATOR_HH
#define WAVEDYN_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dvm/controller.hh"
#include "power/model.hh"
#include "sim/config.hh"
#include "sim/pipeline.hh"
#include "workload/profile.hh"

namespace wavedyn
{

/**
 * Simulation semantics version tag — part of every result-cache key
 * (cache/key.hh).
 *
 * simulate() is a pure function of (BenchmarkProfile, SimConfig,
 * samples, intervalInstrs, DvmConfig) *at a fixed version of this
 * code*; the on-disk result cache reuses stored runs on that promise.
 * Any PR that changes what simulate() computes — pipeline model,
 * workload decode, power/AVF accounting, DVM policy, anything that
 * can move a byte of a SimResult — MUST bump this constant, or warm
 * caches silently serve stale results that no longer match a fresh
 * run. Bit-identical refactors (PR 5 style, proven by goldens) keep
 * it. A version mismatch is treated as a cache miss, never an error.
 */
inline constexpr char kSimVersion[] = "sim-v5";

/** Metric domains of the paper's evaluation. */
enum class Domain
{
    Cpi,   //!< performance (cycles per instruction)
    Power, //!< watts
    Avf,   //!< combined processor AVF
    IqAvf, //!< instruction queue AVF (DVM case study)
};

/** All domains, evaluation order. */
const std::vector<Domain> &allDomains();

/** Short display name for a domain ("CPI", "Power", ...). */
std::string domainName(Domain d);

/** CLI/spec name of a domain ("cpi", "power", "avf", "iqavf"). */
std::string domainSpecName(Domain d);

/** Parse a CLI/spec domain name; returns false on unknown names. */
bool parseDomain(const std::string &name, Domain &out);

/** parseDomain that throws std::invalid_argument listing the names. */
Domain domainByName(const std::string &name);

/** One sampled interval of a run. */
struct IntervalSample
{
    double cpi = 0.0;
    double ipc = 0.0;
    double power = 0.0;
    double avf = 0.0;
    double iqAvf = 0.0;
    double robAvf = 0.0;
    double lsqAvf = 0.0;
    double dl1MissRate = 0.0;
    double l2MissRate = 0.0;
    double bpredMissRate = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    /** Value of a metric domain. */
    double metric(Domain d) const;
};

/** Result of one simulated run. */
struct SimResult
{
    std::vector<IntervalSample> intervals;
    std::uint64_t totalCycles = 0;
    std::uint64_t totalInstructions = 0;
    DvmStats dvmStats;
    double dvmFinalWqRatio = 0.0;

    /** Time series of one metric across intervals. */
    std::vector<double> trace(Domain d) const;

    /**
     * Time series of several metrics in one pass over the intervals,
     * aligned with @p domains. Campaign assembly extracts every
     * domain of every run, so the one-pass form walks each run's
     * interval record once instead of once per domain.
     */
    std::vector<std::vector<double>>
    traces(const std::vector<Domain> &domains) const;

    /** Instruction-weighted aggregate of a metric. */
    double aggregate(Domain d) const;
};

/**
 * Simulation front door: one run = one (benchmark, config, DVM policy)
 * triple sampled into numIntervals intervals of intervalInstrs
 * committed instructions each: decodeRunShape() then
 * simulateDecoded() (sim/batch.hh).
 */
SimResult simulate(const BenchmarkProfile &bench, const SimConfig &cfg,
                   std::size_t numIntervals, std::size_t intervalInstrs,
                   const DvmConfig &dvm = {});

/**
 * Assemble one IntervalSample from a pipeline whose interval window
 * just closed. Shared by the driver (sim/batch.hh) and the test
 * oracle, so both perform the identical floating-point arithmetic in
 * the identical order.
 * @param startCycle pipe.now() at the interval's start.
 */
IntervalSample assembleIntervalSample(const Pipeline &pipe,
                                      const PowerModel &power,
                                      const SimConfig &cfg,
                                      std::uint64_t startCycle);

} // namespace wavedyn

#endif // WAVEDYN_SIM_SIMULATOR_HH
