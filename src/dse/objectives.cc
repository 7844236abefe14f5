#include "dse/objectives.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace wavedyn
{

const std::vector<Objective> &
allObjectives()
{
    static const std::vector<Objective> objectives = {
        Objective::Cpi,  Objective::Bips, Objective::Power,
        Objective::Energy, Objective::Avf,
    };
    return objectives;
}

std::string
objectiveName(Objective o)
{
    switch (o) {
      case Objective::Cpi:
        return "cpi";
      case Objective::Bips:
        return "bips";
      case Objective::Power:
        return "power";
      case Objective::Energy:
        return "energy";
      case Objective::Avf:
        return "avf";
    }
    return "unknown";
}

bool
parseObjective(const std::string &name, Objective &out)
{
    for (Objective o : allObjectives()) {
        if (objectiveName(o) == name) {
            out = o;
            return true;
        }
    }
    return false;
}

std::vector<Objective>
parseObjectiveList(const std::string &list)
{
    auto fail = [](const std::string &what) {
        std::string known;
        for (Objective o : allObjectives())
            known += (known.empty() ? "" : ", ") + objectiveName(o);
        throw std::invalid_argument(what + " (known objectives: " +
                                    known + ")");
    };

    std::vector<Objective> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        std::string token = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        Objective o;
        if (!parseObjective(token, o))
            fail("unknown objective '" + token + "'");
        for (Objective seen : out)
            if (seen == o)
                fail("duplicate objective '" + token + "'");
        out.push_back(o);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty())
        fail("empty objective list");
    return out;
}

bool
maximised(Objective o)
{
    return o == Objective::Bips;
}

std::vector<Domain>
domainsOf(Objective o)
{
    switch (o) {
      case Objective::Cpi:
      case Objective::Bips:
        return {Domain::Cpi};
      case Objective::Power:
        return {Domain::Power};
      case Objective::Energy:
        return {Domain::Cpi, Domain::Power};
      case Objective::Avf:
        return {Domain::Avf};
    }
    return {};
}

std::vector<Domain>
domainsFor(const std::vector<Objective> &objectives)
{
    std::vector<Domain> out;
    for (Domain d : allDomains()) {
        bool needed = false;
        for (Objective o : objectives)
            for (Domain od : domainsOf(o))
                needed = needed || od == d;
        if (needed)
            out.push_back(d);
    }
    return out;
}

namespace
{

const std::vector<TraceSegment> &
segmentsOf(Domain d, const SegmentView &view)
{
    const std::vector<TraceSegment> *segs = view.of(d);
    assert(segs != nullptr && !segs->empty());
    return *segs;
}

/**
 * The sums run kGroup rows at a time with the running sums held in
 * registers: each row's sum is one serial chain of adds, so only
 * independent rows keep the adders busy.
 */
constexpr std::size_t kGroup = 16;

/** acc[k] += v[k] for every k < G, @p times times. */
template <std::size_t G>
inline void
addRepeated(double (&acc)[G], const double (&v)[G], std::size_t times)
{
    for (std::size_t i = 0; i < times; ++i)
        for (std::size_t k = 0; k < G; ++k)
            acc[k] += v[k];
}

/** out[r] = mean of row r's trace for rows r0 .. r0 + G - 1. */
template <std::size_t G>
void
meanSegmentRows(const std::vector<TraceSegment> &segs, std::size_t r0,
                double *out)
{
    double acc[G] = {};
    std::size_t n = 0;
    for (const TraceSegment &seg : segs) {
        double v[G];
        for (std::size_t k = 0; k < G; ++k)
            v[k] = seg.values[r0 + k];
        addRepeated(acc, v, seg.samples);
        n += seg.samples;
    }
    for (std::size_t k = 0; k < G; ++k)
        out[r0 + k] = acc[k] / static_cast<double>(n);
}

/** out[r] = mean of row r's trace over @p segs. */
void
meanSegments(const std::vector<TraceSegment> &segs, std::size_t rows,
             double *out)
{
    std::size_t r = 0;
    for (; r + kGroup <= rows; r += kGroup)
        meanSegmentRows<kGroup>(segs, r, out);
    for (; r < rows; ++r)
        meanSegmentRows<1>(segs, r, out);
}

/**
 * out[r] = mean of row r's power * cpi product for rows r0 .. r0 +
 * G - 1. The walk steps to the next boundary of either list; one
 * product holds for every sample up to it.
 */
template <std::size_t G>
void
meanProductRows(const std::vector<TraceSegment> &power,
                const std::vector<TraceSegment> &cpi, std::size_t r0,
                double *out)
{
    double acc[G] = {};
    std::size_t n = 0;
    std::size_t p = 0;
    std::size_t c = 0;
    std::size_t pLeft = power[0].samples;
    std::size_t cLeft = cpi[0].samples;
    while (p < power.size()) {
        assert(c < cpi.size());
        const std::size_t m = std::min(pLeft, cLeft);
        double v[G];
        for (std::size_t k = 0; k < G; ++k)
            v[k] = power[p].values[r0 + k] * cpi[c].values[r0 + k];
        addRepeated(acc, v, m);
        n += m;
        pLeft -= m;
        cLeft -= m;
        if (pLeft == 0 && ++p < power.size())
            pLeft = power[p].samples;
        if (cLeft == 0 && ++c < cpi.size())
            cLeft = cpi[c].samples;
    }
    assert(c == cpi.size());
    for (std::size_t k = 0; k < G; ++k)
        out[r0 + k] = acc[k] / static_cast<double>(n);
}

/** out[r] = mean of row r's power * cpi product. */
void
meanProducts(const std::vector<TraceSegment> &power,
             const std::vector<TraceSegment> &cpi, std::size_t rows,
             double *out)
{
    std::size_t r = 0;
    for (; r + kGroup <= rows; r += kGroup)
        meanProductRows<kGroup>(power, cpi, r, out);
    for (; r < rows; ++r)
        meanProductRows<1>(power, cpi, r, out);
}

/** objectiveValue of every row of @p view, out[r] for row r. */
inline void
segmentValues(Objective o, const SegmentView &view, double *out)
{
    const std::size_t rows = view.rows;
    switch (o) {
      case Objective::Cpi:
        meanSegments(segmentsOf(Domain::Cpi, view), rows, out);
        return;
      case Objective::Bips:
        meanSegments(segmentsOf(Domain::Cpi, view), rows, out);
        for (std::size_t r = 0; r < rows; ++r)
            out[r] = out[r] > 0.0 ? 1.0 / out[r] : 0.0;
        return;
      case Objective::Power:
        meanSegments(segmentsOf(Domain::Power, view), rows, out);
        return;
      case Objective::Energy:
        // Intervals hold a fixed instruction count, so per-interval
        // energy is proportional to power_i * cpi_i; the mean of that
        // product is energy per instruction up to the clock period.
        meanProducts(segmentsOf(Domain::Power, view),
                     segmentsOf(Domain::Cpi, view), rows, out);
        return;
      case Objective::Avf:
        meanSegments(segmentsOf(Domain::Avf, view), rows, out);
        return;
    }
}

/** objectiveValue of @p traces: one row of one-sample segments. */
double
mapValue(Objective o, const std::map<Domain, std::vector<double>> &traces)
{
    std::array<std::vector<TraceSegment>,
               static_cast<std::size_t>(Domain::IqAvf) + 1>
        segs;
    SegmentView view;
    for (const auto &[d, trace] : traces) {
        std::vector<TraceSegment> &list = segs[static_cast<std::size_t>(d)];
        for (const double &v : trace)
            list.push_back({&v, 1});
        view.set(d, list);
    }
    double v = 0.0;
    segmentValues(o, view, &v);
    return v;
}

/** scoreSegments' one body. */
inline void
segmentScores(Objective o, const SegmentView &view, double *out)
{
    segmentValues(o, view, out);
    if (maximised(o))
        for (std::size_t r = 0; r < view.rows; ++r)
            out[r] = -out[r];
}

// The body's two entry points (util/simd.hh): every sum runs across
// rows, each row's adds in sample order, so both give the same bits.

void
segmentScoresBaseline(Objective o, const SegmentView &view, double *out)
{
    segmentScores(o, view, out);
}

#if WAVEDYN_HAVE_AVX2_VARIANT
WAVEDYN_AVX2_VARIANT void
segmentScoresAvx2(Objective o, const SegmentView &view, double *out)
{
    segmentScores(o, view, out);
}
#endif

} // anonymous namespace

void
scoreSegments(Objective o, const SegmentView &view, double *out)
{
    scoreSegments(o, view, out, bestSimdVariant());
}

void
scoreSegments(Objective o, const SegmentView &view, double *out,
              [[maybe_unused]] SimdVariant variant)
{
    assert(simdVariantSupported(variant));
#if WAVEDYN_HAVE_AVX2_VARIANT
    if (variant == SimdVariant::Avx2) {
        segmentScoresAvx2(o, view, out);
        return;
    }
#endif
    segmentScoresBaseline(o, view, out);
}

double
objectiveValue(Objective o,
               const std::map<Domain, std::vector<double>> &traces)
{
    return mapValue(o, traces);
}

double
objectiveScore(Objective o,
               const std::map<Domain, std::vector<double>> &traces)
{
    double v = mapValue(o, traces);
    return maximised(o) ? -v : v;
}

} // namespace wavedyn
