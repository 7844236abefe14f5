/**
 * @file
 * Radial basis function network with regression-tree-derived units
 * (paper Section 2.2, following Orr et al., "Combining Regression Trees
 * and Radial Basis Function Networks").
 *
 * f(x) = w0 + sum_i w_i * phi_i(x),
 * phi_i(x) = prod_d exp(-((x_d - mu_id) / theta_id)^2)
 *
 * The product of per-dimension factors is Orr's Gaussian
 * exp(-sum_d z_d^2), rounded differently. As a product it lets a
 * lattice evaluation (RbfUnitPool) tabulate each factor once and share
 * partial products between rows, doing the very multiplies predict()
 * does.
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

    /** A fitted network given directly: bias w0 and its units (no seed
     *  tree). */
    RbfNetwork(double bias, std::vector<RbfUnit> units);

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
     * response() from a raw row (no bounds metadata): 1.0 times the
     * factors exp(-z_d * z_d), z_d = (x_d - mu_d) / theta_d, multiplied
     * in dimension order. Fitting, predict(), predictMany() and
     * RbfUnitPool all evaluate a unit this way, so they agree bit for
     * bit.
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

/** What a pooled lattice evaluation computed. */
struct RbfTermCounts
{
    std::uint64_t terms = 0; //!< rows x unit references, each added once
    std::uint64_t rows = 0;  //!< lattice rows evaluated
};

/**
 * The units of a set of RBF networks, pooled and tabulated on a design
 * lattice, for evaluating every network at the same lattice rows.
 *
 * Networks grown on one design matrix share units: the tree root, and
 * any split two trees agree on. The pool keeps each distinct (centre,
 * radius) pair once, matched by bitwise equality, so one factor table
 * exp(-z^2) — [dimension][level][distinct unit], every dimension
 * taking as many level rows as the widest — and one response per
 * distinct unit and row serve every network. Each network keeps its
 * own list of unit references (refs), in its own order, with its own
 * weights and bias.
 *
 * Rows are evaluated in blocks of up to kBlock, stored as row pairs:
 * [pair][distinct unit][2]. A unit's response at a row is the product
 * of its prefix over dims 0..D-2, shared by the rows of a run, and its
 * last-dimension factor, read from the table's last-dimension rows; a
 * pair's two rows fill in one pass over the units. Each network's sum
 * is its bias plus weight x response, ref by ref, over 16-row tiles
 * (8 pairs) held in registers. Every multiply and add is the one
 * RbfNetwork::predict() does, in the same order, so the results are
 * bit-identical by construction.
 *
 * Immutable after construction and safe to share between threads;
 * each thread evaluates through its own Scratch.
 */
class RbfUnitPool
{
  public:
    /** Rows per block: the most predict() tabulates at once. */
    static constexpr std::size_t kBlock = 64;

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

        /** [row][unit] prefix products: rows 0..D-2 hold the
         *  products over dims 0..d-1 (row 0 is 1.0), and rows D-1 and
         *  D are the prefixes of the last two runs, whose rows a pair
         *  may straddle. */
        std::vector<double> partial;
        /** [pair][unit][2] each distinct unit's response per row of
         *  the block, the rows of a pair interleaved. */
        std::vector<double> block;
    };

    /**
     * Every network at @p n lattice rows given as level indices (n x
     * dims, row-major, as DesignSpace::trainIndicesFromFlat writes
     * them): out[m * stride + r] is bit-identical to network m's
     * predict() at row r's normalised coordinates. Rows go through in
     * blocks of kBlock; within a block, consecutive rows that share
     * their first dims - 1 indices (a run) share their prefix
     * products. Adds what it computed to @p counts.
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
    };

    /** predict() for the block that starts at @p levelIdx, at most
     *  @p avail rows; returns its row count. */
    std::size_t predictBlock(Scratch &s, const std::size_t *levelIdx,
                             std::size_t avail, double *out,
                             std::size_t stride) const;

    std::size_t dims = 0;
    std::size_t levelRows = 0; //!< table rows per dimension
    std::size_t units = 0;
    std::vector<double> table;      //!< exp(-z^2), [dim][level][unit]
    std::vector<double> bias;       //!< w0 per network
    std::vector<std::size_t> first; //!< network m's refs start here
    std::vector<UnitRef> refs;      //!< every network's, in order
};

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_RBF_NETWORK_HH
