#include "sim/simulator.hh"

#include <stdexcept>

#include "sim/batch.hh"

namespace wavedyn
{

const std::vector<Domain> &
allDomains()
{
    static const std::vector<Domain> domains = {Domain::Cpi,
                                                Domain::Power,
                                                Domain::Avf};
    return domains;
}

std::string
domainName(Domain d)
{
    switch (d) {
      case Domain::Cpi:
        return "CPI";
      case Domain::Power:
        return "Power";
      case Domain::Avf:
        return "AVF";
      case Domain::IqAvf:
        return "IQ_AVF";
    }
    return "?";
}

std::string
domainSpecName(Domain d)
{
    switch (d) {
      case Domain::Cpi:
        return "cpi";
      case Domain::Power:
        return "power";
      case Domain::Avf:
        return "avf";
      case Domain::IqAvf:
        return "iqavf";
    }
    return "?";
}

bool
parseDomain(const std::string &name, Domain &out)
{
    if (name == "cpi")
        out = Domain::Cpi;
    else if (name == "power")
        out = Domain::Power;
    else if (name == "avf")
        out = Domain::Avf;
    else if (name == "iqavf")
        out = Domain::IqAvf;
    else
        return false;
    return true;
}

Domain
domainByName(const std::string &name)
{
    Domain d;
    if (!parseDomain(name, d))
        throw std::invalid_argument(
            "unknown domain '" + name +
            "' (known: cpi, power, avf, iqavf)");
    return d;
}

double
IntervalSample::metric(Domain d) const
{
    switch (d) {
      case Domain::Cpi:
        return cpi;
      case Domain::Power:
        return power;
      case Domain::Avf:
        return avf;
      case Domain::IqAvf:
        return iqAvf;
    }
    return 0.0;
}

std::vector<double>
SimResult::trace(Domain d) const
{
    std::vector<double> out;
    out.reserve(intervals.size());
    for (const auto &s : intervals)
        out.push_back(s.metric(d));
    return out;
}

std::vector<std::vector<double>>
SimResult::traces(const std::vector<Domain> &domains) const
{
    std::vector<std::vector<double>> out(domains.size());
    for (auto &t : out)
        t.reserve(intervals.size());
    for (const auto &s : intervals)
        for (std::size_t d = 0; d < domains.size(); ++d)
            out[d].push_back(s.metric(domains[d]));
    return out;
}

double
SimResult::aggregate(Domain d) const
{
    if (intervals.empty())
        return 0.0;
    double acc = 0.0;
    double weight = 0.0;
    for (const auto &s : intervals) {
        double w = static_cast<double>(s.instructions);
        acc += s.metric(d) * w;
        weight += w;
    }
    return weight > 0.0 ? acc / weight : 0.0;
}

IntervalSample
assembleIntervalSample(const Pipeline &pipe, const PowerModel &power,
                       const SimConfig &cfg, std::uint64_t startCycle)
{
    const ActivityCounts &act = pipe.intervalActivity();
    AvfSample avf = pipe.intervalAvf();

    IntervalSample s;
    s.cycles = pipe.now() - startCycle;
    s.instructions = act.committed;
    s.cpi = s.instructions
        ? static_cast<double>(s.cycles) /
          static_cast<double>(s.instructions)
        : 0.0;
    s.ipc = s.cpi > 0.0 ? 1.0 / s.cpi : 0.0;
    s.power = power.watts(act);
    s.iqAvf = avf.iq;
    s.robAvf = avf.rob;
    s.lsqAvf = avf.lsq;
    s.avf = avf.combined(cfg);
    s.dl1MissRate = act.dl1Accesses
        ? static_cast<double>(act.dl1Misses) /
          static_cast<double>(act.dl1Accesses)
        : 0.0;
    s.l2MissRate = act.l2Accesses
        ? static_cast<double>(act.l2Misses) /
          static_cast<double>(act.l2Accesses)
        : 0.0;
    s.bpredMissRate = act.bpredLookups
        ? static_cast<double>(act.bpredMispredicts) /
          static_cast<double>(act.bpredLookups)
        : 0.0;
    return s;
}

SimResult
simulate(const BenchmarkProfile &bench, const SimConfig &cfg,
         std::size_t numIntervals, std::size_t intervalInstrs,
         const DvmConfig &dvm)
{
    return simulateDecoded(
        decodeRunShape(bench, numIntervals, intervalInstrs, fetchAhead(cfg)),
        cfg, numIntervals, intervalInstrs, dvm);
}

} // namespace wavedyn
