/**
 * @file
 * Text serialization of the regression models. Records are whitespace
 * separated; the first token is the model name, dispatched by
 * loadRegressionModel(). Doubles round-trip via max_digits10.
 */

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "mlmodel/linear_model.hh"
#include "mlmodel/rbf_network.hh"
#include "mlmodel/regression_tree.hh"

namespace wavedyn
{

namespace
{

std::ostream &
full(std::ostream &os)
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    return os;
}

} // anonymous namespace

void
RbfNetwork::save(std::ostream &os) const
{
    std::size_t dims = net.empty() ? 0 : net.front().center.size();
    full(os) << name() << " " << w0 << " " << net.size() << " " << dims
             << "\n";
    for (const RbfUnit &u : net) {
        for (double c : u.center)
            os << c << " ";
        for (double r : u.radius)
            os << r << " ";
        os << u.weight << "\n";
    }
}

std::unique_ptr<RbfNetwork>
RbfNetwork::load(std::istream &is)
{
    double bias = 0.0;
    std::size_t count = 0, dims = 0;
    if (!(is >> bias >> count >> dims))
        return nullptr;
    std::vector<RbfUnit> units(count);
    for (RbfUnit &u : units) {
        u.center.resize(dims);
        u.radius.resize(dims);
        for (double &c : u.center)
            if (!(is >> c))
                return nullptr;
        for (double &r : u.radius)
            if (!(is >> r))
                return nullptr;
        if (!(is >> u.weight))
            return nullptr;
    }
    return std::make_unique<RbfNetwork>(bias, std::move(units));
}

void
LinearModel::save(std::ostream &os) const
{
    full(os) << name() << " " << w0 << " " << w.size();
    for (double v : w)
        os << " " << v;
    os << "\n";
}

std::unique_ptr<LinearModel>
LinearModel::load(std::istream &is)
{
    auto model = std::make_unique<LinearModel>();
    std::size_t n = 0;
    if (!(is >> model->w0 >> n))
        return nullptr;
    model->w.resize(n);
    for (double &v : model->w)
        if (!(is >> v))
            return nullptr;
    return model;
}

void
GlobalMeanModel::save(std::ostream &os) const
{
    full(os) << name() << " " << mean << "\n";
}

std::unique_ptr<GlobalMeanModel>
GlobalMeanModel::load(std::istream &is)
{
    auto model = std::make_unique<GlobalMeanModel>();
    if (!(is >> model->mean))
        return nullptr;
    return model;
}

void
RegressionTree::save(std::ostream &os) const
{
    std::size_t dims = tree.empty() ? 0 : tree.front().center.size();
    full(os) << name() << " " << tree.size() << " " << dims << "\n";
    for (const TreeNode &n : tree) {
        auto idx = [](std::size_t v) {
            return v == TreeNode::none
                ? std::int64_t(-1)
                : static_cast<std::int64_t>(v);
        };
        os << idx(n.left) << " " << idx(n.right) << " " << idx(n.feature)
           << " " << n.threshold << " " << n.mean << " " << n.sse << " "
           << n.count << " " << n.depth;
        for (double c : n.center)
            os << " " << c;
        for (double h : n.halfWidth)
            os << " " << h;
        os << "\n";
    }
}

std::unique_ptr<RegressionTree>
RegressionTree::load(std::istream &is)
{
    auto model = std::make_unique<RegressionTree>();
    std::size_t count = 0, dims = 0;
    if (!(is >> count >> dims))
        return nullptr;
    model->tree.resize(count);
    // Importance statistics are not persisted (fit-time artefacts).
    model->featStats.assign(dims, FeatureImportance{});
    for (TreeNode &n : model->tree) {
        std::int64_t left = 0, right = 0, feature = 0;
        if (!(is >> left >> right >> feature >> n.threshold >> n.mean >>
              n.sse >> n.count >> n.depth))
            return nullptr;
        auto idx = [](std::int64_t v) {
            return v < 0 ? TreeNode::none
                         : static_cast<std::size_t>(v);
        };
        n.left = idx(left);
        n.right = idx(right);
        n.feature = idx(feature);
        n.center.resize(dims);
        n.halfWidth.resize(dims);
        for (double &c : n.center)
            if (!(is >> c))
                return nullptr;
        for (double &h : n.halfWidth)
            if (!(is >> h))
                return nullptr;
    }
    return model;
}

std::unique_ptr<RegressionModel>
loadRegressionModel(std::istream &is)
{
    std::string kind;
    if (!(is >> kind))
        return nullptr;
    if (kind == "rbf-network")
        return RbfNetwork::load(is);
    if (kind == "linear")
        return LinearModel::load(is);
    if (kind == "global-mean")
        return GlobalMeanModel::load(is);
    if (kind == "regression-tree")
        return RegressionTree::load(is);
    return nullptr;
}

} // namespace wavedyn
