#include "mlmodel/rbf_network.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

namespace wavedyn
{

RbfNetwork::RbfNetwork(RbfOptions opts) : opts(opts)
{
}

RbfNetwork::RbfNetwork(double bias, std::vector<RbfUnit> units)
    : net(std::move(units)), w0(bias)
{
}

double
RbfNetwork::response(const RbfUnit &unit, const std::vector<double> &input)
{
    assert(unit.center.size() == input.size());
    return responseAt(unit, input.data());
}

double
RbfNetwork::responseAt(const RbfUnit &unit, const double *input)
{
    double acc = 1.0;
    for (std::size_t d = 0; d < unit.center.size(); ++d) {
        double z = (input[d] - unit.center[d]) / unit.radius[d];
        acc *= std::exp(-(z * z));
    }
    return acc;
}

namespace
{

/**
 * Build the n x m response matrix of candidate units: responseAt()
 * for every (row, unit), with its factors multiplied in dimension
 * order. Each factor exp(-z²) is computed once per (dimension,
 * distinct column value, unit) — training rows repeat few values per
 * dimension — and distinct values are found by their bits, so the
 * table holds exactly the factors responseAt() would compute.
 */
Matrix
responseMatrix(const Matrix &x, const std::vector<RbfUnit> &units)
{
    assert(units.empty() || units.front().center.size() == x.cols());
    const std::size_t n = x.rows(), m = units.size();
    Matrix phi(n, m, 1.0);
    std::vector<std::uint64_t> bits(n), values;
    std::vector<double> factor;
    for (std::size_t d = 0; d < x.cols(); ++d) {
        for (std::size_t r = 0; r < n; ++r)
            std::memcpy(&bits[r], x.rowPtr(r) + d, sizeof(double));
        values = bits;
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()),
                     values.end());
        factor.resize(values.size() * m);
        for (std::size_t i = 0; i < values.size(); ++i) {
            double v;
            std::memcpy(&v, &values[i], sizeof v);
            for (std::size_t j = 0; j < m; ++j) {
                // responseAt's per-dimension factor, verbatim.
                double z = (v - units[j].center[d]) / units[j].radius[d];
                factor[i * m + j] = std::exp(-(z * z));
            }
        }
        for (std::size_t r = 0; r < n; ++r) {
            std::size_t i = static_cast<std::size_t>(
                std::lower_bound(values.begin(), values.end(), bits[r]) -
                values.begin());
            const double *f = factor.data() + i * m;
            double *row = phi.rowPtr(r);
            for (std::size_t j = 0; j < m; ++j)
                row[j] *= f[j];
        }
    }
    return phi;
}

/** Append a bias column of ones in front of a matrix. */
Matrix
withBias(const Matrix &phi)
{
    Matrix out(phi.rows(), phi.cols() + 1);
    for (std::size_t r = 0; r < phi.rows(); ++r) {
        out.at(r, 0) = 1.0;
        for (std::size_t c = 0; c < phi.cols(); ++c)
            out.at(r, c + 1) = phi.at(r, c);
    }
    return out;
}

} // anonymous namespace

void
RbfNetwork::fit(const Matrix &x, const std::vector<double> &y)
{
    assert(x.rows() == y.size());
    assert(x.rows() > 0);

    net.clear();
    w0 = 0.0;

    // Seed: one candidate unit per regression tree node.
    tree = RegressionTree(opts.tree);
    tree.fit(x, y);

    std::vector<RbfUnit> candidates;
    candidates.reserve(tree.nodes().size());
    for (const TreeNode &node : tree.nodes()) {
        RbfUnit u;
        u.center = node.center;
        u.radius.resize(node.halfWidth.size());
        for (std::size_t d = 0; d < u.radius.size(); ++d) {
            u.radius[d] = std::max(opts.radiusScale * node.halfWidth[d],
                                   opts.radiusFloor);
        }
        candidates.push_back(std::move(u));
    }

    if (opts.fit == RbfFit::RidgeAll)
        fitRidgeAll(x, y, std::move(candidates));
    else
        fitForwardGcv(x, y, std::move(candidates));
}

void
RbfNetwork::fitRidgeAll(const Matrix &x, const std::vector<double> &y,
                        std::vector<RbfUnit> candidates)
{
    Matrix phi = withBias(responseMatrix(x, candidates));
    SolveResult sol = ridgeSolve(phi, y, opts.ridgeLambda);
    if (!sol.ok) {
        // Degenerate training set: fall back to the mean predictor.
        double mean = 0.0;
        for (double v : y)
            mean += v;
        w0 = mean / static_cast<double>(y.size());
        return;
    }
    w0 = sol.x[0];
    for (std::size_t j = 0; j < candidates.size(); ++j) {
        if (sol.x[j + 1] != 0.0) {
            candidates[j].weight = sol.x[j + 1];
            net.push_back(candidates[j]);
        }
    }
}

void
RbfNetwork::fitForwardGcv(const Matrix &x, const std::vector<double> &y,
                          std::vector<RbfUnit> candidates)
{
    std::size_t n = x.rows();
    std::size_t m = candidates.size();
    Matrix phi = responseMatrix(x, candidates);

    // Orthogonal least squares forward selection. The bias column is
    // always in the basis; candidate columns are kept orthogonalised
    // against everything selected so far (modified Gram-Schmidt).
    std::vector<std::vector<double>> q(m, std::vector<double>(n));
    for (std::size_t j = 0; j < m; ++j)
        for (std::size_t r = 0; r < n; ++r)
            q[j][r] = phi.at(r, j);

    // Orthogonalise against the bias (constant) column.
    std::vector<double> resid = y;
    {
        double ymean = 0.0;
        for (double v : y)
            ymean += v;
        ymean /= static_cast<double>(n);
        for (double &v : resid)
            v -= ymean;
        for (std::size_t j = 0; j < m; ++j) {
            double mean = 0.0;
            for (double v : q[j])
                mean += v;
            mean /= static_cast<double>(n);
            for (double &v : q[j])
                v -= mean;
        }
    }

    double sse = dot(resid, resid);
    double best_gcv = std::numeric_limits<double>::max();
    if (n > 1) {
        double denom = static_cast<double>(n - 1);
        best_gcv = static_cast<double>(n) * sse / (denom * denom);
    }

    std::vector<bool> used(m, false);
    std::vector<std::size_t> selected;
    const double norm_tol = 1e-10 * static_cast<double>(n);

    std::size_t max_units = std::min(opts.maxUnits, m);
    while (selected.size() < max_units &&
           selected.size() + 2 < n) {
        // Pick the candidate with the largest error reduction.
        double best_red = 0.0;
        std::size_t best_j = m;
        for (std::size_t j = 0; j < m; ++j) {
            if (used[j])
                continue;
            double qq = dot(q[j], q[j]);
            if (qq < norm_tol)
                continue;
            double qy = dot(q[j], resid);
            double red = qy * qy / qq;
            if (red > best_red) {
                best_red = red;
                best_j = j;
            }
        }
        if (best_j == m)
            break;

        double new_sse = std::max(sse - best_red, 0.0);
        std::size_t gamma = selected.size() + 2; // units + bias + new one
        double denom = static_cast<double>(n - gamma);
        double gcv = denom > 0.0
            ? static_cast<double>(n) * new_sse / (denom * denom)
            : std::numeric_limits<double>::max();
        if (gcv >= best_gcv)
            break;
        best_gcv = gcv;
        sse = new_sse;

        // Deflate the residual and the remaining candidates.
        used[best_j] = true;
        selected.push_back(best_j);
        const std::vector<double> &qb = q[best_j];
        double qq = dot(qb, qb);
        double coef = dot(qb, resid) / qq;
        for (std::size_t r = 0; r < n; ++r)
            resid[r] -= coef * qb[r];
        for (std::size_t j = 0; j < m; ++j) {
            if (used[j])
                continue;
            double proj = dot(qb, q[j]) / qq;
            if (proj == 0.0)
                continue;
            for (std::size_t r = 0; r < n; ++r)
                q[j][r] -= proj * qb[r];
        }
    }

    // Refit exact weights on the selected original columns + bias.
    Matrix sel(n, selected.size() + 1);
    for (std::size_t r = 0; r < n; ++r) {
        sel.at(r, 0) = 1.0;
        for (std::size_t c = 0; c < selected.size(); ++c)
            sel.at(r, c + 1) = phi.at(r, selected[c]);
    }
    SolveResult sol = ridgeSolve(sel, y, opts.ridgeLambda);
    if (!sol.ok) {
        double mean = 0.0;
        for (double v : y)
            mean += v;
        w0 = mean / static_cast<double>(n);
        return;
    }
    w0 = sol.x[0];
    for (std::size_t c = 0; c < selected.size(); ++c) {
        RbfUnit u = candidates[selected[c]];
        u.weight = sol.x[c + 1];
        net.push_back(std::move(u));
    }
}

double
RbfNetwork::predict(const std::vector<double> &input) const
{
    double acc = w0;
    for (const RbfUnit &u : net)
        acc += u.weight * response(u, input);
    return acc;
}

std::vector<double>
RbfNetwork::predictMany(const Matrix &x) const
{
    // Rows are evaluated in place instead of copied into a fresh
    // vector; accumulation order matches predict() exactly.
    assert(net.empty() || net.front().center.size() == x.cols());
    std::vector<double> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.rowPtr(r);
        double acc = w0;
        for (const RbfUnit &u : net)
            acc += u.weight * responseAt(u, row);
        out[r] = acc;
    }
    return out;
}

RbfUnitPool::RbfUnitPool(const std::vector<const RbfNetwork *> &nets,
                         const std::vector<std::vector<double>> &levels)
    : dims(levels.size())
{
    assert(dims >= 1);
    for (const std::vector<double> &lv : levels)
        levelRows = std::max(levelRows, lv.size());
    // A unit's key is the bits of its centre then its radius: equal
    // bits give equal table entries, so sharing a unit changes no sum.
    std::map<std::vector<std::uint64_t>, std::size_t> index;
    std::vector<const RbfUnit *> distinct;
    std::vector<std::uint64_t> key(2 * dims);
    for (const RbfNetwork *net : nets) {
        first.push_back(refs.size());
        bias.push_back(net->bias());
        for (const RbfUnit &u : net->units()) {
            assert(u.center.size() == dims && u.radius.size() == dims);
            std::memcpy(key.data(), u.center.data(),
                        dims * sizeof(double));
            std::memcpy(key.data() + dims, u.radius.data(),
                        dims * sizeof(double));
            auto [it, added] = index.emplace(key, distinct.size());
            if (added)
                distinct.push_back(&u);
            refs.push_back({it->second, u.weight});
        }
    }
    first.push_back(refs.size());
    units = distinct.size();
    table.assign(dims * levelRows * units, 0.0);
    for (std::size_t d = 0; d < dims; ++d) {
        for (std::size_t i = 0; i < levels[d].size(); ++i) {
            double *row = table.data() + (d * levelRows + i) * units;
            for (std::size_t u = 0; u < units; ++u) {
                // responseAt's per-dimension factor, verbatim.
                double z = (levels[d][i] - distinct[u]->center[d]) /
                           distinct[u]->radius[d];
                row[u] = std::exp(-(z * z));
            }
        }
    }
}

RbfUnitPool::Scratch::Scratch(const RbfUnitPool &pool)
    : partial((pool.dims + 1) * pool.units, 1.0),
      block(pool.units * kBlock)
{
}

void
RbfUnitPool::predict(Scratch &s, const std::size_t *levelIdx,
                     std::size_t n, double *out, std::size_t stride,
                     RbfTermCounts &counts) const
{
    assert(stride >= n);
    for (std::size_t b0 = 0; b0 < n;)
        b0 += predictBlock(s, levelIdx + b0 * dims, n - b0, out + b0,
                           stride);
    counts.terms += n * refs.size();
    counts.rows += n;
}

std::size_t
RbfUnitPool::predictBlock(Scratch &s, const std::size_t *levelIdx,
                          std::size_t avail, double *out,
                          std::size_t stride) const
{
    const std::size_t n = std::min(avail, kBlock);
    const std::size_t last = dims - 1;
    double *partial = s.partial.data();
    // Pair by pair: a row pair's responses interleave in one pass over
    // the units, each the row's prefix over dims 0..D-2 times its
    // last-dimension factor. Rows that share dims 0..D-2 (a run) share
    // the prefix; the sweep varies the last parameter fastest, so a
    // run is mostly every level of it. A row that starts a run
    // recomputes only the products after the first dimension where it
    // differs from the row before, and a block's first row recomputes
    // them all. partial[d] is responseAt's running product before
    // dimension d, and runs alternate between two prefix slots, so a
    // pair that straddles a run boundary still has both prefixes: each
    // entry is the very product responseAt() returns. An odd last row
    // is paired with itself.
    std::size_t slot = 0;
    const double *pre[2] = {partial, partial};
    const double *fac[2] = {partial, partial};
    for (std::size_t r0 = 0; r0 < n; r0 += 2) {
        for (std::size_t h = 0; h < 2 && r0 + h < n; ++h) {
            const std::size_t *idx = levelIdx + (r0 + h) * dims;
            std::size_t keep = 0;
            if (r0 + h > 0)
                while (keep < last && idx[keep] == (idx - dims)[keep])
                    ++keep;
            if (keep < last)
                slot ^= 1;
            for (std::size_t d = keep; d < last; ++d) {
                const double *f =
                    table.data() + (d * levelRows + idx[d]) * units;
                const double *p = partial + d * units;
                double *next =
                    partial + (d + 1 < last ? d + 1 : last + slot) * units;
                for (std::size_t u = 0; u < units; ++u)
                    next[u] = p[u] * f[u];
            }
            pre[h] = partial + (last + slot) * units;
            fac[h] = table.data() + (last * levelRows + idx[last]) * units;
        }
        if (r0 + 1 == n) {
            pre[1] = pre[0];
            fac[1] = fac[0];
        }
        double *o = s.block.data() + r0 * units;
        for (std::size_t u = 0; u < units; ++u) {
            o[2 * u] = pre[0][u] * fac[0][u];
            o[2 * u + 1] = pre[1][u] * fac[1][u];
        }
    }

    // Tile by tile, network by network, predict()'s sum: bias first,
    // then weight x response ref by ref, for kTile rows held in
    // registers. A block's last tile may run past row n into stale
    // pairs; those lanes are never stored.
    constexpr std::size_t kTile = 16;
    static_assert(kBlock % kTile == 0, "tiles must tile the block");
    const std::size_t pairStride = 2 * units;
    for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
        const double *tile = s.block.data() + t0 * units;
        const std::size_t rows = std::min(kTile, n - t0);
        for (std::size_t m = 0; m < bias.size(); ++m) {
            double acc[kTile];
            std::fill(acc, acc + kTile, bias[m]);
            for (std::size_t j = first[m]; j < first[m + 1]; ++j) {
                const double w = refs[j].weight;
                const double *col = tile + 2 * refs[j].unit;
                for (std::size_t q = 0; q < kTile / 2; ++q) {
                    acc[2 * q] += w * col[q * pairStride];
                    acc[2 * q + 1] += w * col[q * pairStride + 1];
                }
            }
            // A full tile's fixed-size copy compiles to vector stores;
            // a variable-length one to a string move that cost more
            // than the sums themselves.
            if (rows == kTile)
                std::copy(acc, acc + kTile, out + m * stride + t0);
            else
                std::copy(acc, acc + rows, out + m * stride + t0);
        }
    }
    return n;
}

} // namespace wavedyn
