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
    double acc = 0.0;
    for (std::size_t d = 0; d < unit.center.size(); ++d) {
        double z = (input[d] - unit.center[d]) / unit.radius[d];
        acc += z * z;
    }
    return std::exp(-acc);
}

namespace
{

/** Build the n x m response matrix of candidate units. */
Matrix
responseMatrix(const Matrix &x, const std::vector<RbfUnit> &units)
{
    assert(units.empty() || units.front().center.size() == x.cols());
    Matrix phi(x.rows(), units.size());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.rowPtr(r);
        for (std::size_t j = 0; j < units.size(); ++j)
            phi.at(r, j) = RbfNetwork::responseAt(units[j], row);
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

namespace
{

/** Two rows of a block, one per SIMD lane. */
using Lane = double __attribute__((vector_size(16)));
/** A lane comparison: all ones where true. */
using LaneMask = std::int64_t __attribute__((vector_size(16)));

constexpr std::size_t kLanes = 2;
/** Rows a network's sum runs across in registers: one cache line of a
 *  block column. */
constexpr std::size_t kChunk = 8;
constexpr std::size_t kChunkLanes = kChunk / kLanes;

Lane
loadLane(const double *p)
{
    Lane v = {};
    std::memcpy(&v, p, sizeof v);
    return v;
}

Lane
laneAbs(Lane v)
{
    const LaneMask magnitude = {0x7fffffffffffffffLL, 0x7fffffffffffffffLL};
    return reinterpret_cast<Lane>(reinterpret_cast<LaneMask>(v) &
                                  magnitude);
}

} // anonymous namespace

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
        // The floor: kFloorBinades below the bias's biased exponent,
        // and at least 1. A zero, subnormal or non-finite bias gets
        // exponent 0, whose bound is +inf: every ref is kept, and
        // every term added.
        std::uint64_t bits = 0;
        const double b = net->bias();
        std::memcpy(&bits, &b, sizeof bits);
        const unsigned e = static_cast<unsigned>(bits >> 52) & 0x7ffu;
        unsigned emin = 0;
        if (e != 0 && e != 0x7ff)
            emin = e > kFloorBinades ? e - kFloorBinades : 1;
        first.push_back(refs.size());
        bias.push_back(b);
        floor.push_back(emin == 0 ? 0.0
                                  : std::ldexp(1.0, static_cast<int>(emin) -
                                                        1023));
        for (const RbfUnit &u : net->units()) {
            assert(u.center.size() == dims && u.radius.size() == dims);
            std::memcpy(key.data(), u.center.data(),
                        dims * sizeof(double));
            std::memcpy(key.data() + dims, u.radius.data(),
                        dims * sizeof(double));
            auto [it, added] = index.emplace(key, distinct.size());
            if (added)
                distinct.push_back(&u);
            const double lw = std::log(std::fabs(u.weight));
            refs.push_back({it->second, u.weight, lw,
                            lw + rbfNegligibleBound(emin)});
        }
    }
    first.push_back(refs.size());
    units = distinct.size();
    table.assign(dims * levelRows * units, 0.0);
    for (std::size_t d = 0; d < dims; ++d) {
        for (std::size_t i = 0; i < levels[d].size(); ++i) {
            double *row = table.data() + (d * levelRows + i) * units;
            for (std::size_t u = 0; u < units; ++u) {
                // responseAt's per-dimension term, verbatim.
                double z = (levels[d][i] - distinct[u]->center[d]) /
                           distinct[u]->radius[d];
                row[u] = z * z;
            }
        }
    }
    lastTable.resize(units * levelRows);
    for (std::size_t i = 0; i < levelRows; ++i)
        for (std::size_t u = 0; u < units; ++u)
            lastTable[u * levelRows + i] =
                table[((dims - 1) * levelRows + i) * units + u];
    // A unit's z^2 at any row is at least its smallest prefix plus
    // this, as rounding is monotone; a NaN anywhere makes it -inf.
    lastMin.assign(units, std::numeric_limits<double>::infinity());
    for (std::size_t u = 0; u < units; ++u) {
        for (std::size_t i = 0; i < levels[dims - 1].size(); ++i)
            lastMin[u] = std::min(lastMin[u], lastTable[u * levelRows + i]);
        for (std::size_t d = 0; d < dims; ++d)
            for (std::size_t i = 0; i < levels[d].size(); ++i)
                if (std::isnan(table[(d * levelRows + i) * units + u]))
                    lastMin[u] = -std::numeric_limits<double>::infinity();
    }
    expBound.assign(units, -std::numeric_limits<double>::infinity());
    for (const UnitRef &ref : refs) {
        double &bound = expBound[ref.unit];
        bound = std::isnan(ref.threshold)
                    ? std::numeric_limits<double>::infinity()
                    : std::max(bound, ref.threshold);
    }
}

RbfUnitPool::Scratch::Scratch(const RbfUnitPool &pool)
    : partial(pool.dims * pool.units, 0.0), runSum(kBlock * kTile, 0.0),
      zmin(pool.units), column(pool.units, kNoColumn)
{
    // Reserved, not touched: a page costs memory once a column uses it.
    block.reserve(pool.units * kBlock);
}

void
RbfUnitPool::predict(Scratch &s, const std::size_t *levelIdx,
                     std::size_t n, double *out, std::size_t stride,
                     RbfTermCounts &counts) const
{
    assert(stride >= n);
    for (std::size_t b0 = 0; b0 < n;)
        b0 += predictBlock(s, levelIdx + b0 * dims, n - b0, out + b0,
                           stride, counts);
}

std::size_t
RbfUnitPool::tabulate(Scratch &s, const std::size_t *levelIdx,
                      std::size_t avail, RbfTermCounts &counts) const
{
    // The block's runs: rows that share dims 0..D-2, so share their sum
    // over them. The sweep varies the last parameter fastest, so a run
    // is mostly every level of it.
    const std::size_t *runIdx[kBlock] = {}; //!< each run's first row
    std::size_t keep[kBlock] = {}; //!< leading indices shared with the last
    std::size_t runOf[kBlock] = {}; //!< each row's run
    std::size_t last[kBlock] = {};  //!< each row's last index
    std::size_t runs = 0, n = 0;
    while (n < std::min(avail, kBlock)) {
        const std::size_t *idx = levelIdx + n * dims;
        if (runs > 0)
            while (keep[runs] + 1 < dims &&
                   runIdx[runs - 1][keep[runs]] == idx[keep[runs]])
                ++keep[runs];
        runIdx[runs] = idx;
        do {
            runOf[n] = runs;
            last[n] = levelIdx[n * dims + dims - 1];
        } while (++n < std::min(avail, kBlock) &&
                 std::equal(idx, idx + dims - 1, levelIdx + n * dims));
        ++runs;
    }

    const std::size_t padded = (n + kChunk - 1) / kChunk * kChunk;
    const double inf = std::numeric_limits<double>::infinity();
    std::uint64_t exps = 0;
    std::size_t columns = 0;
    double z2[kBlock] = {};
    for (std::size_t r = n; r < padded; ++r)
        z2[r] = inf;
    // A tile of units at a time: run j's sum over dims 0..D-2 for unit
    // u goes to runSum[j * kTile + u - u0]. Bit-identity with
    // predict(): responseAt sums the z^2 terms left to right from 0.0,
    // so the running sums partial[d][u] (unit u's sum over dims
    // 0..d-1; row 0 is 0.0), plus dim D-1 last, are the same sequence
    // of roundings, and each table entry is responseAt's own term. Run
    // j keeps rows 0..keep[j] of run j - 1's partial sums; its last one
    // goes straight to runSum, as the next run differs in dims 0..D-2
    // and recomputes it anyway.
    for (std::size_t u0 = 0; u0 < units; u0 += kTile) {
        const std::size_t u1 = std::min(units, u0 + kTile);
        const std::size_t width = u1 - u0;
        double *runSum = s.runSum.data();
        double lowest[kTile] = {}; //!< each unit's smallest run sum
        for (std::size_t j = 0; j < runs; ++j) {
            const std::size_t *idx = runIdx[j];
            double *sumJ = runSum + j * kTile;
            if (dims == 1)
                std::fill(sumJ, sumJ + width, 0.0);
            for (std::size_t d = keep[j]; d + 1 < dims; ++d) {
                const double *z2d =
                    table.data() + (d * levelRows + idx[d]) * units + u0;
                const double *sum = s.partial.data() + d * units + u0;
                double *next = d + 2 == dims
                                   ? sumJ
                                   : s.partial.data() + (d + 1) * units + u0;
                for (std::size_t i = 0; i < width; ++i)
                    next[i] = sum[i] + z2d[i];
            }
        }
        std::copy(runSum, runSum + width, lowest);
        for (std::size_t j = 1; j < runs; ++j) {
            const double *sumJ = runSum + j * kTile;
            std::size_t i = 0;
            for (; i + kLanes <= width; i += kLanes) {
                const Lane p = loadLane(sumJ + i);
                Lane m = loadLane(lowest + i);
                m = p < m ? p : m;
                std::memcpy(lowest + i, &m, sizeof m);
            }
            for (; i < width; ++i)
                lowest[i] = std::min(lowest[i], sumJ[i]);
        }

        // Unit by unit: z^2 at every row, its minimum (-inf past a NaN,
        // so a NaN row keeps every ref of the unit), and then, for a
        // unit some ref can use (live), a column of exp(-z^2) wherever
        // some ref's threshold admits z^2, and 0 elsewhere: every ref
        // that reads a 0 there is negligible above its network's floor.
        for (std::size_t u = u0; u < u1; ++u) {
            // No row's z^2 is below least, as rounding is monotone: a
            // unit whose least is past all its thresholds is not live.
            const double bound = expBound[u];
            const double least = lowest[u - u0] + lastMin[u];
            if (least > bound) {
                s.zmin[u] = least;
                s.column[u] = kNoColumn;
                continue;
            }
            double sum[kBlock] = {};
            for (std::size_t j = 0; j < runs; ++j)
                sum[j] = runSum[j * kTile + u - u0];
            const double *lastZ2 = lastTable.data() + u * levelRows;
            for (std::size_t r = 0; r < n; ++r)
                z2[r] = sum[runOf[r]] + lastZ2[last[r]];
            // Independent lanes keep the minimum off one latency chain.
            // A z^2 that is not >= 0 is NaN.
            const Lane zero = {0.0, 0.0};
            Lane lo[kChunkLanes] = {};
            LaneMask nan[kChunkLanes] = {};
            for (std::size_t i = 0; i < kChunkLanes; ++i) {
                lo[i] = Lane{inf, inf};
                nan[i] = LaneMask{0, 0};
            }
            for (std::size_t r = 0; r < padded; r += kChunk)
                for (std::size_t i = 0; i < kChunkLanes; ++i) {
                    const Lane z = loadLane(z2 + r + i * kLanes);
                    lo[i] = z < lo[i] ? z : lo[i];
                    nan[i] |= ~(z >= zero);
                }
            for (std::size_t i = 1; i < kChunkLanes; ++i) {
                lo[0] = lo[i] < lo[0] ? lo[i] : lo[0];
                nan[0] |= nan[i];
            }
            const double zmin =
                (nan[0][0] | nan[0][1]) ? -inf : std::min(lo[0][0], lo[0][1]);
            s.zmin[u] = zmin;
            if (zmin > bound) {
                s.column[u] = kNoColumn;
                continue;
            }
            s.column[u] = columns * kBlock;
            if (s.block.size() < ++columns * kBlock)
                s.block.resize(columns * kBlock);
            double *col = s.block.data() + s.column[u];
            for (std::size_t r = 0; r < n; ++r) {
                if (z2[r] > bound) {
                    col[r] = 0.0;
                } else {
                    col[r] = std::exp(-z2[r]);
                    ++exps;
                }
            }
            for (std::size_t r = n; r < padded; ++r)
                col[r] = 0.0;
        }
    }
    counts.exps += exps;
    return n;
}

double
RbfUnitPool::z2At(const std::size_t *idx, std::size_t u) const
{
    double z2 = 0.0;
    for (std::size_t d = 0; d < dims; ++d)
        z2 += table[(d * levelRows + idx[d]) * units + u];
    return z2;
}

double
RbfUnitPool::rerun(const Scratch &s, std::size_t m, const std::size_t *idx,
                   std::size_t r, RbfTermCounts &counts) const
{
    // The row-at-a-time chain: each ref is skipped exactly when
    // rbfTermNegligible() proves this sum absorbs it. exp(-z^2) comes
    // from the block where predictBlock() tabulated it.
    double acc = bias[m];
    for (std::size_t j = first[m]; j < first[m + 1]; ++j) {
        const UnitRef &ref = refs[j];
        const double z2 = z2At(idx, ref.unit);
        if (rbfTermNegligible(acc, ref.logAbsWeight, z2))
            continue;
        double e;
        if (s.column[ref.unit] != kNoColumn &&
            !(z2 > expBound[ref.unit])) {
            e = s.block[s.column[ref.unit] + r];
        } else {
            e = std::exp(-z2);
            ++counts.exps;
        }
        const double term = ref.weight * e;
        acc += term;
        ++counts.evaluated;
    }
    ++counts.reruns;
    return acc;
}

std::size_t
RbfUnitPool::predictBlock(Scratch &s, const std::size_t *levelIdx,
                          std::size_t avail, double *out,
                          std::size_t stride, RbfTermCounts &counts) const
{
    const std::size_t n = tabulate(s, levelIdx, avail, counts);

    // Network by network: keep the refs some row of the block needs
    // above the floor, then run the sum across kChunk rows at a time,
    // tracking each row's smallest |sum|. A row whose sum dipped below
    // the floor, or ended inf or NaN, reruns exactly.
    const std::uint64_t evaluatedBefore = counts.evaluated;
    std::uint64_t evaluated = 0;
    const double maxFinite = std::numeric_limits<double>::max();
    const Lane finite = {maxFinite, maxFinite};
    for (std::size_t m = 0; m < bias.size(); ++m) {
        s.kept.clear();
        for (std::size_t j = first[m]; j < first[m + 1]; ++j) {
            const UnitRef &ref = refs[j];
            if (!(s.zmin[ref.unit] > ref.threshold))
                s.kept.push_back({s.column[ref.unit], ref.weight});
        }
        double *row = out + m * stride;
        const Lane b = {bias[m], bias[m]};
        const Lane fl = {floor[m], floor[m]};
        for (std::size_t c0 = 0; c0 < n; c0 += kChunk) {
            Lane acc[kChunkLanes] = {}, lo[kChunkLanes] = {};
            for (std::size_t i = 0; i < kChunkLanes; ++i) {
                acc[i] = b;
                lo[i] = laneAbs(b);
            }
            for (const Scratch::Kept &k : s.kept) {
                const double *e = s.block.data() + k.column + c0;
                const Lane w = {k.weight, k.weight};
                for (std::size_t i = 0; i < kChunkLanes; ++i) {
                    const Lane term = w * loadLane(e + i * kLanes);
                    acc[i] += term;
                    const Lane a = laneAbs(acc[i]);
                    lo[i] = a < lo[i] ? a : lo[i];
                }
            }
            double sums[kChunk] = {};
            LaneMask bad[kChunkLanes] = {};
            LaneMask anyBad = {0, 0};
            for (std::size_t i = 0; i < kChunkLanes; ++i) {
                std::memcpy(sums + i * kLanes, &acc[i], sizeof acc[i]);
                bad[i] = (lo[i] < fl) | ~(laneAbs(acc[i]) <= finite);
                anyBad |= bad[i];
            }
            const std::size_t rows = std::min(kChunk, n - c0);
            std::uint64_t reruns = 0;
            if (anyBad[0] | anyBad[1])
                for (std::size_t r = 0; r < rows; ++r)
                    if (bad[r / kLanes][r % kLanes]) {
                        sums[r] = rerun(s, m, levelIdx + (c0 + r) * dims,
                                        c0 + r, counts);
                        ++reruns;
                    }
            evaluated += (rows - reruns) * s.kept.size();
            if (rows == kChunk)
                std::memcpy(row + c0, sums, sizeof sums);
            else
                std::copy(sums, sums + rows, row + c0);
        }
    }
    // Reruns added theirs already.
    counts.evaluated += evaluated;
    counts.skipped += n * refs.size() - (counts.evaluated - evaluatedBefore);
    counts.rows += n;
    return n;
}

} // namespace wavedyn
