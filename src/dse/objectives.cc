#include "dse/objectives.hh"

#include <algorithm>
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

const double *
traceOf(Domain d, const TraceView &traces)
{
    const double *t = traces.of(d);
    assert(t != nullptr && traces.length > 0);
    return t;
}

/** out[r] = mean of run r's trace in @p t (sample-by-sample layout). */
void
meanTraces(const double *t, std::size_t n, std::size_t runs, double *out)
{
    std::fill(out, out + runs, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t r = 0; r < runs; ++r)
            out[r] += t[i * runs + r];
    for (std::size_t r = 0; r < runs; ++r)
        out[r] /= static_cast<double>(n);
}

TraceView
viewOf(const std::map<Domain, std::vector<double>> &traces)
{
    TraceView view;
    for (const auto &[d, trace] : traces) {
        assert(view.length == 0 || view.length == trace.size());
        view.length = trace.size();
        view.set(d, trace.data());
    }
    return view;
}

/** objectiveValue of every run of @p traces, out[r] for run r. */
void
objectiveValues(Objective o, const TraceView &traces, double *out)
{
    const std::size_t n = traces.length;
    const std::size_t runs = traces.runs;
    switch (o) {
      case Objective::Cpi:
        meanTraces(traceOf(Domain::Cpi, traces), n, runs, out);
        return;
      case Objective::Bips:
        meanTraces(traceOf(Domain::Cpi, traces), n, runs, out);
        for (std::size_t r = 0; r < runs; ++r)
            out[r] = out[r] > 0.0 ? 1.0 / out[r] : 0.0;
        return;
      case Objective::Power:
        meanTraces(traceOf(Domain::Power, traces), n, runs, out);
        return;
      case Objective::Energy: {
        // Intervals hold a fixed instruction count, so per-interval
        // energy is proportional to power_i * cpi_i; the mean of that
        // product is energy per instruction up to the clock period.
        const double *cpi = traceOf(Domain::Cpi, traces);
        const double *power = traceOf(Domain::Power, traces);
        std::fill(out, out + runs, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t r = 0; r < runs; ++r)
                out[r] += power[i * runs + r] * cpi[i * runs + r];
        for (std::size_t r = 0; r < runs; ++r)
            out[r] /= static_cast<double>(n);
        return;
      }
      case Objective::Avf:
        meanTraces(traceOf(Domain::Avf, traces), n, runs, out);
        return;
    }
}

} // anonymous namespace

void
objectiveScores(Objective o, const TraceView &traces, double *out)
{
    objectiveValues(o, traces, out);
    if (maximised(o))
        for (std::size_t r = 0; r < traces.runs; ++r)
            out[r] = -out[r];
}

double
objectiveValue(Objective o, const TraceView &traces)
{
    assert(traces.runs == 1);
    double v = 0.0;
    objectiveValues(o, traces, &v);
    return v;
}

double
objectiveScore(Objective o, const TraceView &traces)
{
    assert(traces.runs == 1);
    double v = 0.0;
    objectiveScores(o, traces, &v);
    return v;
}

double
objectiveValue(Objective o,
               const std::map<Domain, std::vector<double>> &traces)
{
    return objectiveValue(o, viewOf(traces));
}

double
objectiveScore(Objective o,
               const std::map<Domain, std::vector<double>> &traces)
{
    return objectiveScore(o, viewOf(traces));
}

} // namespace wavedyn
