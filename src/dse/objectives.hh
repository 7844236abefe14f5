/**
 * @file
 * Design-space exploration objectives: the scalar figures of merit a
 * design point is judged by. Each objective is computed from the
 * per-interval dynamics traces the predictor (or the real simulator)
 * produces, so predicted and simulated designs are scored by the exact
 * same code path — the predicted-vs-simulated error the explorer
 * reports is an apples-to-apples comparison.
 *
 * All objectives are internally *minimised*; maximised figures (BIPS)
 * are negated by score() so the Pareto machinery only ever minimises.
 */

#ifndef WAVEDYN_DSE_OBJECTIVES_HH
#define WAVEDYN_DSE_OBJECTIVES_HH

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace wavedyn
{

/** Figures of merit the explorer can optimise. */
enum class Objective
{
    Cpi,    //!< mean cycles per instruction (minimise)
    Bips,   //!< mean throughput, 1 / mean CPI (maximise)
    Power,  //!< mean watts (minimise)
    Energy, //!< energy per instruction ~ mean(power_i * cpi_i) (minimise)
    Avf,    //!< mean architectural vulnerability factor (minimise)
};

/** All objectives, declaration order. */
const std::vector<Objective> &allObjectives();

/** CLI name of an objective (e.g. "energy"). */
std::string objectiveName(Objective o);

/** Parse one objective name; returns false on unknown names. */
bool parseObjective(const std::string &name, Objective &out);

/**
 * Parse a comma-separated objective list ("cpi,energy,avf").
 * @throws std::invalid_argument on unknown or duplicate names, or an
 *         empty list, naming the known objectives.
 */
std::vector<Objective> parseObjectiveList(const std::string &list);

/** True for objectives where larger raw values are better (BIPS). */
bool maximised(Objective o);

/**
 * Metric domains whose traces @p o needs (Energy needs Cpi + Power).
 */
std::vector<Domain> domainsOf(Objective o);

/**
 * Union of domainsOf() over @p objectives, allDomains() order — the
 * set of predictors an exploration has to train.
 */
std::vector<Domain> domainsFor(const std::vector<Objective> &objectives);

/**
 * The traces of @p runs runs, borrowed: a pointer per metric domain
 * (null when absent) into buffers of a common length. Sample t of run
 * r sits at byDomain[d][t * runs + r], so one run's trace is a plain
 * array and a block of runs is stored sample by sample. Lets a sweep
 * score traces straight out of its prediction buffers.
 */
struct TraceView
{
    std::size_t length = 0;
    std::size_t runs = 1;
    std::array<const double *, static_cast<std::size_t>(Domain::IqAvf) + 1>
        byDomain{};

    const double *
    of(Domain d) const
    {
        return byDomain[static_cast<std::size_t>(d)];
    }

    void
    set(Domain d, const double *trace)
    {
        byDomain[static_cast<std::size_t>(d)] = trace;
    }
};

/**
 * Raw figure of merit from one run's traces. CPI/Power/AVF are trace
 * means; Energy is the mean of the interval-wise power*cpi product
 * (per-instruction energy up to the fixed clock factor); BIPS is the
 * inverse mean CPI. Sums run i = 0..length-1 from 0.0.
 * @pre every domain in domainsOf(o) is set, length > 0 and
 *      runs == 1.
 */
double objectiveValue(Objective o, const TraceView &traces);

/** objectiveValue folded into minimisation space (BIPS negated). */
double objectiveScore(Objective o, const TraceView &traces);

/**
 * objectiveScore of every run of @p traces, out[r] for run r. Each
 * run's sums run over its own samples in order, so out[r] is
 * bit-identical to objectiveScore of run r alone.
 * @pre every domain in domainsOf(o) is set and length > 0.
 */
void objectiveScores(Objective o, const TraceView &traces, double *out);

/**
 * objectiveValue on traces keyed by domain: a view over the map, so
 * predicted and simulated traces share one scoring routine.
 * @pre every domain in domainsOf(o) is present and non-empty, and
 *      every trace in the map has the same length.
 */
double objectiveValue(Objective o,
                      const std::map<Domain, std::vector<double>> &traces);

/** objectiveScore on traces keyed by domain (see objectiveValue). */
double objectiveScore(Objective o,
                      const std::map<Domain, std::vector<double>> &traces);

} // namespace wavedyn

#endif // WAVEDYN_DSE_OBJECTIVES_HH
