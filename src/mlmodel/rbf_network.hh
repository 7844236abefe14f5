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
    std::uint64_t bits = 0;
    std::memcpy(&bits, &acc, sizeof bits);
    const int e = static_cast<int>((bits >> 52) & 0x7ff);
    if (e == 0 || e == 0x7ff)
        return false;
    constexpr double kLn2 = 0.69314718055994530942;
    return z2 > logAbsWeight + static_cast<double>(1079 - e) * kLn2;
}

/**
 * A network's unit distances tabulated on a design lattice, for
 * RbfNetwork::predictLattice. On a lattice every coordinate is one of
 * its dimension's training levels, so each unit's per-dimension z^2
 * term is a table entry. Every dimension takes the same number of
 * level rows, the largest level count, so a (dimension, level) pair
 * is one offset.
 */
struct RbfLatticeTable
{
    std::size_t dims = 0;
    std::size_t levels = 0;           //!< level rows per dimension
    std::size_t units = 0;
    std::vector<double> z2;           //!< [dim][level][unit]
    std::vector<double> weight;       //!< w per unit
    std::vector<double> logAbsWeight; //!< ln|w| per unit
};

/** Unit terms a lattice evaluation computed and skipped. */
struct RbfTermCounts
{
    std::uint64_t evaluated = 0;
    std::uint64_t skipped = 0;
};

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

    /**
     * Tabulate every unit's z^2 term on a lattice: @p levels[d][i] is
     * the normalised coordinate of level i of dimension d.
     * @pre levels.size() == input dimensions >= 1.
     */
    RbfLatticeTable latticeTable(
        const std::vector<std::vector<double>> &levels) const;

    /**
     * predictMany over @p n lattice rows given as level indices
     * (n x dims, row-major, as DesignSpace::trainIndicesFromFlat
     * writes them): out[r] is bit-identical to predict() at row r's
     * normalised coordinates. A row that shares its first k indices
     * with the previous row reuses that row's per-unit sums over dims
     * 0..k-1, and terms rbfTermNegligible() proves absorbed are
     * skipped. Adds the terms computed and skipped to @p counts.
     */
    void predictLattice(const RbfLatticeTable &table,
                        const std::size_t *levelIdx, std::size_t n,
                        double *out, RbfTermCounts &counts) const;

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

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_RBF_NETWORK_HH
