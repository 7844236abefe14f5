/**
 * @file
 * Wattch-style activity-based power model.
 *
 * Like Wattch, dynamic power is (access counts) x (per-access energy),
 * where per-access energy grows with structure capacity, plus a
 * conditional-clocking idle term and size-proportional leakage. The
 * absolute scale is calibrated loosely to the paper's Figure 1 range
 * (tens of watts, peaks above 100 W for wide cores); only relative
 * behaviour across configurations matters for the predictive models.
 */

#ifndef WAVEDYN_POWER_MODEL_HH
#define WAVEDYN_POWER_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "sim/config.hh"

namespace wavedyn
{

/** Per-interval activity counters accumulated by the pipeline. */
struct ActivityCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issuedIntAlu = 0;
    std::uint64_t issuedIntMul = 0;
    std::uint64_t issuedFpAlu = 0;
    std::uint64_t issuedFpMul = 0;
    std::uint64_t issuedMem = 0;
    std::uint64_t issuedControl = 0;
    std::uint64_t committed = 0;

    std::uint64_t il1Accesses = 0;
    std::uint64_t il1Misses = 0;
    std::uint64_t dl1Accesses = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t itlbAccesses = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t dtlbAccesses = 0;
    std::uint64_t dtlbMisses = 0;

    std::uint64_t bpredLookups = 0;
    std::uint64_t bpredMispredicts = 0;
    std::uint64_t btbLookups = 0;

    std::uint64_t regReads = 0;
    std::uint64_t regWrites = 0;

    std::uint64_t iqOccupancySum = 0;  //!< entry-cycles
    std::uint64_t robOccupancySum = 0; //!< entry-cycles
    std::uint64_t lsqOccupancySum = 0; //!< entry-cycles

    /** Element-wise accumulate. */
    void add(const ActivityCounts &other);

    void reset() { *this = ActivityCounts{}; }
};

/** Per-structure power breakdown in watts. */
using PowerBreakdown = std::map<std::string, double>;

/**
 * Activity -> watts conversion for a given machine configuration.
 */
class PowerModel
{
  public:
    explicit PowerModel(const SimConfig &cfg);

    /** Average power over the activity window, watts. */
    double watts(const ActivityCounts &a) const;

    /** Per-structure decomposition (sums to watts()). */
    PowerBreakdown breakdown(const ActivityCounts &a) const;

    /** Leakage-only component, watts (activity independent). */
    double leakageWatts() const;

    /** Peak dynamic power if every unit fired every cycle, watts. */
    double peakDynamicWatts() const;

    /** Terms of breakdown(). */
    static constexpr std::size_t kTerms = 13;

  private:
    /** breakdown()'s terms in key order. @pre a.cycles > 0. */
    void terms(const ActivityCounts &a, double out[kTerms]) const;

    SimConfig cfg;

    // Cached per-access energies (abstract nanojoule-like units).
    double eIl1, eDl1, eL2, eMem;
    double eItlb, eDtlb;
    double eBpred, eBtb;
    double eFetch, eDispatch, eCommit;
    double eIqPerEntryCycle, eIqSelect;
    double eRobPerEntryCycle;
    double eLsqPerEntryCycle, eLsqSearch;
    double eRegRead, eRegWrite;
    double eIntAlu, eIntMul, eFpAlu, eFpMul, eMemPort;
    double clockTreeWatts;
    double leakage;
};

} // namespace wavedyn

#endif // WAVEDYN_POWER_MODEL_HH
