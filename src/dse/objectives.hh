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
#include "util/simd.hh"
#include "wavelet/haar.hh"

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
 * The traces of a block of rows as segments, borrowed: per metric
 * domain (null when absent) a list of TraceSegments in sample order,
 * each holding one value per row. A plain trace is its samples as
 * one-sample segments with rows = 1, so predicted blocks and
 * simulated traces are scored by one routine.
 */
struct SegmentView
{
    std::size_t rows = 1;
    std::array<const std::vector<TraceSegment> *,
               static_cast<std::size_t>(Domain::IqAvf) + 1>
        byDomain{};

    const std::vector<TraceSegment> *
    of(Domain d) const
    {
        return byDomain[static_cast<std::size_t>(d)];
    }

    void
    set(Domain d, const std::vector<TraceSegment> &segments)
    {
        byDomain[static_cast<std::size_t>(d)] = &segments;
    }
};

/**
 * objectiveScore of every row of @p view, out[r] for row r. Every sum
 * adds each sample in order from 0.0 (a segment adds its value once
 * per sample it covers), so out[r] is bit-identical to the score of
 * row r's traces written out sample by sample.
 * @pre every domain in domainsOf(o) is set, and all of them cover
 *      the same nonzero number of samples.
 */
void scoreSegments(Objective o, const SegmentView &view, double *out);

/**
 * scoreSegments run as @p variant, a dual-compiled kernel
 * (util/simd.hh): its vector lanes run across rows, so every
 * supported variant gives the same bits. The overload above runs
 * bestSimdVariant().
 * @pre simdVariantSupported(@p variant).
 */
void scoreSegments(Objective o, const SegmentView &view, double *out,
                   SimdVariant variant);

/**
 * Raw figure of merit from one run's traces keyed by domain. CPI,
 * Power and AVF are trace means; Energy is the mean of the
 * interval-wise power * cpi product (per-instruction energy up to the
 * fixed clock factor); BIPS is the inverse mean CPI. Scored through a
 * SegmentView of one-sample segments.
 * @pre every domain in domainsOf(o) is present and non-empty, and
 *      every trace in the map has the same length.
 */
double objectiveValue(Objective o,
                      const std::map<Domain, std::vector<double>> &traces);

/** objectiveValue folded into minimisation space (BIPS negated). */
double objectiveScore(Objective o,
                      const std::map<Domain, std::vector<double>> &traces);

} // namespace wavedyn

#endif // WAVEDYN_DSE_OBJECTIVES_HH
