#include "sim/design_space.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/table.hh"

namespace wavedyn
{

std::size_t
Parameter::levelIndex(double value) const
{
    for (std::size_t i = 0; i < trainLevels.size(); ++i)
        if (trainLevels[i] == value)
            return i;
    assert(false && "value is not a training level");
    return 0;
}

double
Parameter::normalize(double value) const
{
    if (trainLevels.size() <= 1)
        return 0.0;
    // Interpolate between surrounding levels so values off the training
    // grid (future continuous extensions) still embed sensibly.
    if (value <= trainLevels.front())
        return 0.0;
    if (value >= trainLevels.back())
        return 1.0;
    for (std::size_t i = 0; i + 1 < trainLevels.size(); ++i) {
        if (value >= trainLevels[i] && value <= trainLevels[i + 1]) {
            double span = trainLevels[i + 1] - trainLevels[i];
            double frac = span > 0.0 ? (value - trainLevels[i]) / span
                                     : 0.0;
            return (static_cast<double>(i) + frac) /
                   static_cast<double>(trainLevels.size() - 1);
        }
    }
    return 1.0;
}

DesignSpace
DesignSpace::paper()
{
    DesignSpace space;
    space.addParameter({"Fetch_width", {2, 4, 8, 16}, {2, 8}});
    space.addParameter({"ROB_size", {96, 128, 160}, {128, 160}});
    space.addParameter({"IQ_size", {32, 64, 96, 128}, {32, 64}});
    space.addParameter({"LSQ_size", {16, 24, 32, 64}, {16, 24, 32}});
    space.addParameter({"L2_size", {256, 1024, 2048, 4096},
                        {256, 1024, 4096}});
    space.addParameter({"L2_lat", {8, 12, 14, 16, 20}, {8, 12, 14}});
    space.addParameter({"il1_size", {8, 16, 32, 64}, {8, 16, 32}});
    space.addParameter({"dl1_size", {8, 16, 32, 64}, {16, 32, 64}});
    space.addParameter({"dl1_lat", {1, 2, 3, 4}, {1, 2, 3}});
    return space;
}

std::size_t
DesignSpace::addParameter(Parameter p)
{
    assert(!p.trainLevels.empty());
    for (std::size_t i = 1; i < p.trainLevels.size(); ++i)
        assert(p.trainLevels[i - 1] < p.trainLevels[i]);
    for (double t : p.testLevels) {
        bool found = false;
        for (double v : p.trainLevels)
            found = found || v == t;
        assert(found && "test level must be a training level");
        (void)found;
    }
    params.push_back(std::move(p));
    return params.size() - 1;
}

std::size_t
DesignSpace::paramIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < params.size(); ++i)
        if (params[i].name == name)
            return i;
    assert(false && "unknown parameter name");
    return 0;
}

std::size_t
DesignSpace::trainSpaceSize() const
{
    std::size_t total = 1;
    for (const auto &p : params)
        total *= p.levels();
    return total;
}

std::vector<double>
DesignSpace::normalize(const DesignPoint &point) const
{
    assert(point.size() == params.size());
    std::vector<double> out(point.size());
    for (std::size_t i = 0; i < point.size(); ++i)
        out[i] = params[i].normalize(point[i]);
    return out;
}

DesignPoint
DesignSpace::pointFromTrainIndices(
    const std::vector<std::size_t> &idx) const
{
    assert(idx.size() == params.size());
    DesignPoint p(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        assert(idx[i] < params[i].trainLevels.size());
        p[i] = params[i].trainLevels[idx[i]];
    }
    return p;
}

DesignPoint
DesignSpace::pointFromTestIndices(
    const std::vector<std::size_t> &idx) const
{
    assert(idx.size() == params.size());
    DesignPoint p(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        assert(idx[i] < params[i].testLevels.size());
        p[i] = params[i].testLevels[idx[i]];
    }
    return p;
}

void
DesignSpace::trainIndicesFromFlat(std::size_t flat, std::size_t *idx) const
{
    for (std::size_t i = params.size(); i-- > 0;) {
        std::size_t levels = params[i].levels();
        idx[i] = flat % levels;
        flat /= levels;
    }
    assert(flat == 0 && "flat index out of range");
}

DesignPoint
DesignSpace::pointFromFlatTrainIndex(std::size_t flat) const
{
    std::vector<std::size_t> idx(params.size());
    trainIndicesFromFlat(flat, idx.data());
    return pointFromTrainIndices(idx);
}

std::vector<std::size_t>
DesignSpace::trainIndicesOf(const std::vector<DesignPoint> &points) const
{
    // Parameter::levelIndex cannot report an off-level value, so every
    // point is checked before it is decoded.
    std::vector<std::size_t> idx(points.size() * params.size());
    for (std::size_t r = 0; r < points.size(); ++r) {
        std::string invalid = validationError(points[r]);
        if (!invalid.empty())
            throw std::invalid_argument(invalid);
        for (std::size_t c = 0; c < params.size(); ++c)
            idx[r * params.size() + c] = params[c].levelIndex(points[r][c]);
    }
    return idx;
}

std::vector<std::string>
DesignSpace::names() const
{
    std::vector<std::string> out;
    out.reserve(params.size());
    for (const auto &p : params)
        out.push_back(p.name);
    return out;
}

bool
DesignSpace::valid(const DesignPoint &point) const
{
    return validationError(point).empty();
}

std::string
DesignSpace::validationError(const DesignPoint &point) const
{
    if (point.size() != params.size())
        return "design point has " + std::to_string(point.size()) +
               " coordinates; this space has " +
               std::to_string(params.size());
    for (std::size_t i = 0; i < point.size(); ++i) {
        bool on_level = false;
        for (double v : params[i].trainLevels)
            on_level = on_level || v == point[i];
        if (on_level)
            continue;
        std::string levels;
        for (double v : params[i].trainLevels)
            levels += (levels.empty() ? "" : ", ") + fmtParam(v);
        return "coordinate " + std::to_string(i + 1) + " (" +
               params[i].name + "): " + fmtParam(point[i]) +
               " is outside the training grid (levels: " + levels +
               ")";
    }
    return "";
}

} // namespace wavedyn
