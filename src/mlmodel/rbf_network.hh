/**
 * @file
 * Radial basis function network with regression-tree-derived units
 * (paper Section 2.2, following Orr et al., "Combining Regression Trees
 * and Radial Basis Function Networks").
 *
 * f(x) = w0 + sum_i w_i * phi_i(x),
 * phi_i(x) = exp(-sum_d ((x_d - mu_id) / theta_id)^2)
 *
 * Every node of a regression tree grown on the training data contributes
 * one candidate unit: centre = node input mean, radius = node half-extent
 * (scaled, floored). Weights come from either ridge-regularised least
 * squares over all candidates or greedy forward selection minimising
 * generalised cross-validation (GCV), Orr's procedure.
 */

#ifndef WAVEDYN_MLMODEL_RBF_NETWORK_HH
#define WAVEDYN_MLMODEL_RBF_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "mlmodel/model.hh"
#include "mlmodel/regression_tree.hh"

namespace wavedyn
{

/** One Gaussian unit of the network. */
struct RbfUnit
{
    std::vector<double> center; //!< mu
    std::vector<double> radius; //!< theta (per-dimension)
    double weight = 0.0;        //!< w
};

/**
 * Exact skip rule of the lattice kernel: true only when adding the
 * unit term w * exp(-z2) to @p acc cannot change @p acc under
 * round-to-nearest, so leaving the term out is bit-identical.
 *
 * With e the biased exponent of acc (E = e - 1023, |acc| >= 2^E), the
 * test z2 > ln|w| + (1079 - e) ln 2 bounds the exact term by
 * 2^(E-56). Half an ulp of acc is at least 2^(E-54), even when acc
 * sits on a power of two and the term points down a binade, so the
 * two spare bits absorb the rounding of ln, exp and the multiply
 * (an exp result in the subnormal range is off by less than 2x).
 * A zero, subnormal, infinite or NaN acc never skips, nor does a NaN
 * z2 or a NaN or infinite weight (ln|w| NaN or +inf).
 *
 * @param logAbsWeight std::log(std::fabs(w)).
 */
inline bool
rbfTermNegligible(double acc, double logAbsWeight, double z2)
{
    // (1079 - e) ln 2 per biased exponent e, and +inf where acc never
    // skips (e = 0 or 0x7ff): ln|w| + inf is +inf or NaN, and z2 is
    // greater than neither. A lookup keeps the int-to-double
    // conversion and multiply off the sum's dependency chain.
    struct Bounds
    {
        double byExponent[2048] = {};

        constexpr Bounds()
        {
            constexpr double kLn2 = 0.69314718055994530942;
            for (int e = 1; e < 0x7ff; ++e)
                byExponent[e] = static_cast<double>(1079 - e) * kLn2;
            byExponent[0] = std::numeric_limits<double>::infinity();
            byExponent[0x7ff] = byExponent[0];
        }
    };
    static constexpr Bounds kBounds{};
    std::uint64_t bits = 0;
    std::memcpy(&bits, &acc, sizeof bits);
    return z2 > logAbsWeight + kBounds.byExponent[(bits >> 52) & 0x7ff];
}

/** Weight fitting strategies. */
enum class RbfFit
{
    RidgeAll,        //!< ridge least squares over every candidate unit
    ForwardGcv,      //!< greedy forward selection minimising GCV
};

/** RBF training options. */
struct RbfOptions
{
    TreeOptions tree;            //!< options for the seeding tree
    double radiusScale = 1.0;    //!< multiplies node half-extents
    double radiusFloor = 0.05;   //!< minimum theta (inputs are in [0,1])
    double ridgeLambda = 1e-4;   //!< ridge penalty
    RbfFit fit = RbfFit::ForwardGcv;
    std::size_t maxUnits = 48;   //!< cap on selected units
};

/**
 * RBF network regression model.
 */
class RbfNetwork : public RegressionModel
{
  public:
    explicit RbfNetwork(RbfOptions opts = {});

    void fit(const Matrix &x, const std::vector<double> &y) override;
    double predict(const std::vector<double> &input) const override;
    std::vector<double> predictMany(const Matrix &x) const override;
    std::string name() const override { return "rbf-network"; }
    void save(std::ostream &os) const override;

    /** Restore a network saved with save() (name token consumed). */
    static std::unique_ptr<RbfNetwork> load(std::istream &is);

    /** The units retained after fitting (excludes the bias). */
    const std::vector<RbfUnit> &units() const { return net; }

    /** Bias term w0. */
    double bias() const { return w0; }

    /** The seeding regression tree (valid after fit). */
    const RegressionTree &seedTree() const { return tree; }

    /** Gaussian response of one unit at an input. */
    static double response(const RbfUnit &unit,
                           const std::vector<double> &input);

    /**
     * response() from a raw row (no bounds metadata). Shared by the
     * scalar and batched prediction paths so both accumulate in the
     * same order and stay bit-identical.
     * @pre input points at unit.center.size() doubles.
     */
    static double responseAt(const RbfUnit &unit, const double *input);

  private:
    void fitRidgeAll(const Matrix &x, const std::vector<double> &y,
                     std::vector<RbfUnit> candidates);
    void fitForwardGcv(const Matrix &x, const std::vector<double> &y,
                       std::vector<RbfUnit> candidates);

    RbfOptions opts;
    RegressionTree tree;
    std::vector<RbfUnit> net;
    double w0 = 0.0;
};

/** Unit terms a pooled lattice evaluation computed, skipped and
 *  exponentiated. */
struct RbfTermCounts
{
    std::uint64_t evaluated = 0; //!< terms added to a network's sum
    std::uint64_t skipped = 0;   //!< terms rbfTermNegligible() dropped
    std::uint64_t exps = 0;      //!< exp() calls, <= evaluated
};

/**
 * The units of a set of RBF networks, pooled and tabulated on a design
 * lattice, for evaluating every network at the same lattice rows.
 *
 * Networks grown on one design matrix share units: the tree root, and
 * any split two trees agree on. The pool keeps each distinct (centre,
 * radius) pair once, matched by bitwise equality, so one z^2 table —
 * [dimension][level][distinct unit], every dimension taking as many
 * level rows as the widest — and one running sum per distinct unit
 * serve every network. Each network keeps its own list of unit
 * references, in its own order, with its own weights and bias.
 *
 * Immutable after construction and safe to share between threads;
 * each thread evaluates through its own Scratch.
 */
class RbfUnitPool
{
  public:
    /**
     * Pool the units of @p nets on a lattice: @p levels[d][i] is the
     * normalised coordinate of level i of dimension d.
     * @pre levels.size() >= 1 and every unit has levels.size()
     *      dimensions.
     */
    RbfUnitPool(const std::vector<const RbfNetwork *> &nets,
                const std::vector<std::vector<double>> &levels);

    /** Networks pooled, in constructor order. */
    std::size_t networks() const { return bias.size(); }

    /** Distinct (centre, radius) pairs across all networks. */
    std::size_t distinctUnits() const { return units; }

    /** One thread's evaluation state; sized for one pool. */
    struct Scratch
    {
        explicit Scratch(const RbfUnitPool &pool);

        std::vector<double> partial;       //!< [dim][unit] prefix sums
        std::vector<double> z2;            //!< [unit] this row's z^2
        std::vector<double> expNeg;        //!< [unit] exp(-z2) memo
        std::vector<std::uint64_t> stamp;  //!< [unit] row expNeg is for
        std::uint64_t row = 0;             //!< rows evaluated so far
    };

    /**
     * Every network at @p n lattice rows given as level indices (n x
     * dims, row-major, as DesignSpace::trainIndicesFromFlat writes
     * them): out[m * stride + r] is bit-identical to network m's
     * predict() at row r's normalised coordinates. A row that shares
     * its first k indices with the previous row reuses that row's
     * per-unit sums over dims 0..k-1. Each network skips the terms
     * rbfTermNegligible() proves its own running sum absorbs, and
     * exp(-z^2) is computed at most once per distinct unit and row.
     * Adds the terms computed and skipped and the exp() calls to
     * @p counts.
     * @pre stride >= n; each index is below its dimension's level
     *      count.
     */
    void predict(Scratch &scratch, const std::size_t *levelIdx,
                 std::size_t n, double *out, std::size_t stride,
                 RbfTermCounts &counts) const;

  private:
    /** One network's use of a distinct unit. */
    struct UnitRef
    {
        std::size_t unit;
        double weight;
        double logAbsWeight; //!< ln|weight|
    };

    std::size_t dims = 0;
    std::size_t levelRows = 0; //!< table rows per dimension
    std::size_t units = 0;
    std::vector<double> table;       //!< z^2, [dim][level][unit]
    std::vector<double> bias;        //!< w0 per network
    std::vector<std::size_t> first;  //!< network m's refs start here
    std::vector<UnitRef> refs;       //!< every network's, in order
};

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_RBF_NETWORK_HH
