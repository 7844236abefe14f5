/**
 * @file
 * Multi-objective Pareto frontier extraction for design-space
 * exploration.
 *
 * All objective scores are minimised (dse/objectives.hh folds
 * maximised figures by negation before they reach this layer). The
 * frontier of a point set is its non-dominated subset, found by one
 * routine (nonDominated): a lexicographic sort, then one scan that
 * tests each row against the survivors so far, the most recent
 * dominator first — O(n log n + n * f)
 * for a front of f points, tiny against n for the spaces explored
 * here.
 *
 * Determinism contract: the frontier is a pure function of the input
 * *set* — input order, sharding, and worker count cannot change it.
 * Output is always in canonical order (lexicographic by score vector,
 * then by design point), so rendered frontiers are byte-stable.
 */

#ifndef WAVEDYN_DSE_PARETO_HH
#define WAVEDYN_DSE_PARETO_HH

#include <cstddef>
#include <vector>

#include "sim/design_space.hh"

namespace wavedyn
{

/** One scored design point of an exploration sweep. */
struct FrontPoint
{
    DesignPoint point;          //!< concrete parameter values
    std::vector<double> scores; //!< minimised objective scores
    std::vector<double> values; //!< raw objective values (for display)
    double uncertainty = 0.0;   //!< predictor-uncertainty rank key
};

/**
 * True when @p a dominates @p b: a <= b in every score and a < b in at
 * least one. Equal vectors dominate in neither direction.
 * @pre equal sizes.
 */
bool dominates(const std::vector<double> &a, const std::vector<double> &b);

/**
 * Indices (ascending) of the non-dominated rows of a flat score array:
 * row i is scores[i*k .. i*k+k), all minimised. paretoFront is this
 * filter over its points' scores, so a sweep can filter on plain
 * doubles and build FrontPoints only for the survivors. Equal rows
 * dominate neither direction, so exact ties survive together.
 * @pre k >= 1.
 */
std::vector<std::size_t> nonDominated(const double *scores, std::size_t n,
                                      std::size_t k);

/**
 * Canonical ordering of front points: lexicographic by score vector,
 * ties broken by the design point. Strict weak ordering over the
 * points a sweep produces (distinct design points).
 */
bool canonicalLess(const FrontPoint &a, const FrontPoint &b);

/**
 * Extract the Pareto frontier (non-dominated subset) of @p points,
 * returned in canonical order. Points with identical score vectors
 * dominate neither direction, so exact-tie sets survive together.
 * @pre every point has the same number of scores (>= 1).
 */
std::vector<FrontPoint> paretoFront(std::vector<FrontPoint> points);

/**
 * Merge per-shard frontiers into the global frontier. Because
 * dominance is transitive, front(union of shard fronts) equals
 * front(union of shards) — workers can reduce chunks locally and this
 * merge loses nothing.
 */
std::vector<FrontPoint>
mergeFronts(std::vector<std::vector<FrontPoint>> shards);

} // namespace wavedyn

#endif // WAVEDYN_DSE_PARETO_HH
