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
 *
 * Flat fronts: a sweep keeps each chunk's survivors as flat rows
 * (FlatFront: an id, the scores, an uncertainty) rather than as
 * FrontPoints, which hold three heap vectors each. Rows of many chunks
 * are filtered together (nonDominatedRows), and FrontPoints are built
 * and put in canonical order only for the merged front
 * (mergeFlatFronts), so tens of thousands of chunk survivors per sweep
 * are never allocated, moved and freed as objects.
 */

#ifndef WAVEDYN_DSE_PARETO_HH
#define WAVEDYN_DSE_PARETO_HH

#include <cstddef>
#include <functional>
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

/**
 * Scored rows kept flat, so that a sweep builds no FrontPoint until
 * the merged front: row i is the caller's id ids[i] (the sweep's flat
 * design-space index), its k minimised scores scores[i*k .. i*k+k)
 * and its uncertainty.
 */
struct FlatFront
{
    std::size_t k = 0; //!< scores per row
    std::vector<std::size_t> ids;
    std::vector<double> scores;
    std::vector<double> uncertainty;

    std::size_t size() const { return ids.size(); }

    /** Append one row of k scores. */
    void
    push(std::size_t id, const double *rowScores, double uncert)
    {
        ids.push_back(id);
        scores.insert(scores.end(), rowScores, rowScores + k);
        uncertainty.push_back(uncert);
    }
};

/**
 * The non-dominated rows among those of @p count shards at @p shards,
 * concatenated in shard order: one nonDominated call, survivors kept
 * in that order. Dominance is transitive, so filtering groups of
 * shards first and then the union of their survivors gives the same
 * rows as one filter over everything.
 * @pre every non-empty shard has the same k >= 1.
 */
FlatFront nonDominatedRows(const FlatFront *shards, std::size_t count);

/** The FrontPoint of one flat row: (id, its k scores, uncertainty). */
using FrontPointBuilder =
    std::function<FrontPoint(std::size_t, const double *, double)>;

/**
 * mergeFronts over flat shards: nonDominatedRows over every shard,
 * then @p build for the survivors only, put in canonical order. Equals paretoFront of
 * every row's FrontPoint, whatever the shard order, as long as
 * @p build maps distinct rows to distinct design points (rows that
 * are equal in id, scores and uncertainty may repeat).
 * @pre every non-empty shard has the same k >= 1.
 */
std::vector<FrontPoint> mergeFlatFronts(const std::vector<FlatFront> &shards,
                                        const FrontPointBuilder &build);

} // namespace wavedyn

#endif // WAVEDYN_DSE_PARETO_HH
