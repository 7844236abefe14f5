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
 * The bound of rbfTermNegligible() at biased exponent @p e of the
 * running sum: (1079 - e) ln 2 for a normal exponent, +inf for e = 0
 * (zero or subnormal) and e = 0x7ff (inf or NaN), where nothing is
 * ever negligible. Non-increasing over e = 1..0x7fe, so a term
 * negligible at one exponent is negligible at every higher finite one.
 * @pre e < 2048.
 */
inline double
rbfNegligibleBound(unsigned e)
{
    // A lookup keeps the int-to-double conversion and multiply off the
    // sum's dependency chain.
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
    return kBounds.byExponent[e];
}

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
 * A zero, subnormal, infinite or NaN acc never skips (the bound is
 * +inf, and ln|w| + inf is +inf or NaN), nor does a NaN z2 or a NaN
 * or infinite weight (ln|w| NaN or +inf).
 *
 * @param logAbsWeight std::log(std::fabs(w)).
 */
inline bool
rbfTermNegligible(double acc, double logAbsWeight, double z2)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &acc, sizeof bits);
    return z2 > logAbsWeight +
                    rbfNegligibleBound(static_cast<unsigned>(bits >> 52) &
                                       0x7ffu);
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

/** What a pooled lattice evaluation computed. */
struct RbfTermCounts
{
    std::uint64_t evaluated = 0; //!< terms added to a network's sum
    std::uint64_t skipped = 0;   //!< rows x refs - evaluated
    std::uint64_t exps = 0;      //!< exp() calls
    std::uint64_t reruns = 0;    //!< (row, network) sums rerun exactly
    std::uint64_t rows = 0;      //!< lattice rows evaluated
};

/**
 * The units of a set of RBF networks, pooled and tabulated on a design
 * lattice, for evaluating every network at the same lattice rows.
 *
 * Networks grown on one design matrix share units: the tree root, and
 * any split two trees agree on. The pool keeps each distinct (centre,
 * radius) pair once, matched by bitwise equality, so one z^2 table —
 * [dimension][level][distinct unit], every dimension taking as many
 * level rows as the widest — and one exp(-z^2) per distinct unit and
 * row serve every network. Each network keeps its own list of unit
 * references (refs), in its own order, with its own weights and bias.
 *
 * Rows are evaluated in blocks of up to kBlock, with the rows as SIMD
 * lanes. Each network has a floor: the exponent kFloorBinades binades
 * below its bias's. A block keeps only the refs whose term some row
 * needs at the floor (its z^2 at or below the ref's threshold), and
 * tabulates exp(-z^2) where a kept ref can need it, 0 elsewhere. Each
 * sum then adds every kept ref unconditionally. While the sum stays at
 * or above its floor that is bit-identical to predict(): a term left
 * out or read as 0 is rbfTermNegligible() at every exponent the sum
 * reaches, and a term added that predict() skips cannot change the
 * sum. A (row, network) sum that dips below its floor or ends inf or
 * NaN is rerun exactly, ref by ref.
 *
 * Immutable after construction and safe to share between threads;
 * each thread evaluates through its own Scratch.
 */
class RbfUnitPool
{
  public:
    /** Rows per block: the most predict() tabulates at once. */
    static constexpr std::size_t kBlock = 64;

    /** A network's floor sits this many binades below its bias. */
    static constexpr unsigned kFloorBinades = 4;

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

        /** A ref the block keeps: its unit's column and weight. */
        struct Kept
        {
            std::size_t column; //!< its unit's, into block
            double weight;
        };

        std::vector<double> partial; //!< [dim][unit] prefix sums
        std::vector<double> runSum;  //!< [run][unit of a tile] sums
        /** [unit] a lower bound of z^2 over the block: the minimum for
         *  a live unit (one a ref can use), -inf past a NaN. */
        std::vector<double> zmin;
        /** [unit] where a live unit's column starts in block, or
         *  kNoColumn. */
        std::vector<std::size_t> column;
        /** kBlock rows of exp(-z^2) per live unit, or 0 where no ref
         *  needs it; grows to the most live units a block had. */
        std::vector<double> block;
        std::vector<Kept> kept; //!< one network's kept refs
    };

    /**
     * Every network at @p n lattice rows given as level indices (n x
     * dims, row-major, as DesignSpace::trainIndicesFromFlat writes
     * them): out[m * stride + r] is bit-identical to network m's
     * predict() at row r's normalised coordinates. Rows go through in
     * blocks of kBlock; within a block, consecutive rows that share
     * their first dims - 1 indices (a run) share their per-unit sums
     * over them. Adds what it computed to @p counts.
     * @pre stride >= n; each index is below its dimension's level
     *      count.
     */
    void predict(Scratch &scratch, const std::size_t *levelIdx,
                 std::size_t n, double *out, std::size_t stride,
                 RbfTermCounts &counts) const;

  private:
    /** Units whose run sums tabulate() holds at once. */
    static constexpr std::size_t kTile = 32;

    /** The column of a unit no ref of the block can use. */
    static constexpr std::size_t kNoColumn = ~std::size_t{0};

    /** One network's use of a distinct unit. */
    struct UnitRef
    {
        std::size_t unit;
        double weight;
        double logAbsWeight; //!< ln|weight|
        /** ln|weight| + rbfNegligibleBound(the network's floor): a
         *  larger z^2 makes the term negligible above the floor. */
        double threshold;
    };

    /** predict() for the block that starts at @p levelIdx, at most
     *  @p avail rows; returns its row count. */
    std::size_t predictBlock(Scratch &s, const std::size_t *levelIdx,
                             std::size_t avail, double *out,
                             std::size_t stride,
                             RbfTermCounts &counts) const;
    /** Split the block into runs and fill s.zmin, s.column and
     *  s.block; returns its row count. */
    std::size_t tabulate(Scratch &s, const std::size_t *levelIdx,
                         std::size_t avail, RbfTermCounts &counts) const;
    /** Unit @p u's z^2 at one row, summed as tabulate() sums it. */
    double z2At(const std::size_t *idx, std::size_t u) const;
    /** Network @p m at row @p r, ref by ref with rbfTermNegligible(). */
    double rerun(const Scratch &s, std::size_t m, const std::size_t *idx,
                 std::size_t r, RbfTermCounts &counts) const;

    std::size_t dims = 0;
    std::size_t levelRows = 0; //!< table rows per dimension
    std::size_t units = 0;
    std::vector<double> table;       //!< z^2, [dim][level][unit]
    std::vector<double> lastTable;   //!< last dim's z^2, [unit][level]
    std::vector<double> lastMin;     //!< [unit] its smallest, or -inf
    /** The largest threshold of each unit's refs (+inf past a NaN):
     *  exp(-z^2) is tabulated where z^2 is at most this. */
    std::vector<double> expBound;
    std::vector<double> bias;        //!< w0 per network
    std::vector<double> floor;       //!< smallest |sum| at the floor
    std::vector<std::size_t> first;  //!< network m's refs start here
    std::vector<UnitRef> refs;       //!< every network's, in order
};

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_RBF_NETWORK_HH
