#include "campaign/report.hh"

#include <cmath>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/stats.hh"
#include "util/table.hh"

namespace wavedyn
{

namespace
{

/** Benchmarks in first-seen order; domains in evaluation order. */
std::vector<std::string>
benchmarksOf(const SuiteReport &report)
{
    std::vector<std::string> names;
    std::set<std::string> seen;
    for (const auto &c : report.cells)
        if (seen.insert(c.benchmark).second)
            names.push_back(c.benchmark);
    return names;
}

std::vector<Domain>
domainsOf(const SuiteReport &report)
{
    std::vector<Domain> domains;
    std::set<int> seen;
    for (const auto &c : report.cells)
        if (seen.insert(static_cast<int>(c.domain)).second)
            domains.push_back(c.domain);
    return domains;
}

std::string
cellText(const SuiteCell *c)
{
    if (!c)
        return "-";
    return fmt(c->mse.median) + " [" + fmt(c->mse.q1) + ", " +
           fmt(c->mse.q3) + "]";
}

} // anonymous namespace

std::string
renderSuiteText(const SuiteReport &report)
{
    auto domains = domainsOf(report);
    TextTable t("suite accuracy — MSE(%) median [q1, q3]");
    std::vector<std::string> head = {"benchmark"};
    for (Domain d : domains)
        head.push_back(domainName(d));
    t.header(head);
    for (const auto &bench : benchmarksOf(report)) {
        std::vector<std::string> row = {bench};
        for (Domain d : domains)
            row.push_back(cellText(report.find(bench, d)));
        t.row(row);
    }
    std::ostringstream os;
    t.print(os);
    for (Domain d : domains)
        os << "overall median " << domainName(d) << ": "
           << fmt(report.overallMedian(d)) << "%\n";
    return os.str();
}

std::string
renderSuiteMarkdown(const SuiteReport &report)
{
    auto domains = domainsOf(report);
    std::ostringstream os;
    os << "| benchmark |";
    for (Domain d : domains)
        os << " " << domainName(d) << " |";
    os << "\n|---|";
    for (std::size_t i = 0; i < domains.size(); ++i)
        os << "---|";
    os << "\n";
    for (const auto &bench : benchmarksOf(report)) {
        os << "| " << bench << " |";
        for (Domain d : domains)
            os << " " << cellText(report.find(bench, d)) << " |";
        os << "\n";
    }
    os << "| **overall median** |";
    for (Domain d : domains)
        os << " **" << fmt(report.overallMedian(d)) << "** |";
    os << "\n";
    return os.str();
}

std::string
renderSuiteCsv(const SuiteReport &report)
{
    std::ostringstream os;
    os << "benchmark,domain,config_index,mse_percent\n";
    for (const auto &c : report.cells) {
        for (std::size_t i = 0; i < c.msePerTest.size(); ++i) {
            os << c.benchmark << "," << domainName(c.domain) << "," << i
               << "," << fmt(c.msePerTest[i], 6) << "\n";
        }
    }
    return os.str();
}

namespace
{

JsonValue
boxplotToJson(const BoxplotSummary &s)
{
    JsonValue v = JsonValue::object();
    v.set("median", s.median);
    v.set("q1", s.q1);
    v.set("q3", s.q3);
    v.set("whisker_low", s.whiskerLow);
    v.set("whisker_high", s.whiskerHigh);
    v.set("mean", s.mean);
    v.set("min", s.min);
    v.set("max", s.max);
    v.set("count", std::uint64_t{s.count});
    JsonValue outliers = JsonValue::array();
    for (double o : s.outliers)
        outliers.push(o);
    v.set("outliers", std::move(outliers));
    return v;
}

JsonValue
doubleArray(const std::vector<double> &values)
{
    JsonValue v = JsonValue::array();
    for (double x : values)
        v.push(x);
    return v;
}

} // anonymous namespace

JsonValue
suiteToJson(const SuiteReport &report)
{
    JsonValue v = JsonValue::object();
    v.set("kind", "suite");
    JsonValue cells = JsonValue::array();
    for (const auto &c : report.cells) {
        JsonValue cell = JsonValue::object();
        cell.set("benchmark", c.benchmark);
        cell.set("domain", domainSpecName(c.domain));
        cell.set("mse_percent", boxplotToJson(c.mse));
        cell.set("mse_per_test", doubleArray(c.msePerTest));
        cell.set("asymmetry_q", doubleArray(c.asymmetryQ));
        cells.push(std::move(cell));
    }
    v.set("cells", std::move(cells));
    JsonValue overall = JsonValue::object();
    for (Domain d : domainsOf(report))
        overall.set(domainSpecName(d), report.overallMedian(d));
    v.set("overall_median", std::move(overall));
    return v;
}

JsonValue
exploreToJson(const ExploreReport &report)
{
    JsonValue v = JsonValue::object();
    v.set("kind", "explore");
    JsonValue objectives = JsonValue::array();
    for (Objective o : report.objectives)
        objectives.push(objectiveName(o));
    v.set("objectives", std::move(objectives));
    JsonValue params = JsonValue::array();
    for (const auto &p : report.paramNames)
        params.push(p);
    v.set("parameters", std::move(params));
    v.set("space_size", std::uint64_t{report.spaceSize});
    v.set("sweep_stride", std::uint64_t{report.sweepStride});
    v.set("sweep_points", std::uint64_t{report.sweepPoints});
    v.set("scenario_count", std::uint64_t{report.scenarioCount});
    v.set("initial_train_points",
          std::uint64_t{report.initialTrainPoints});
    v.set("final_train_points", std::uint64_t{report.finalTrainPoints});

    JsonValue rounds = JsonValue::array();
    for (const auto &r : report.rounds) {
        JsonValue round = JsonValue::object();
        round.set("round", std::uint64_t{r.round});
        round.set("front_size", std::uint64_t{r.frontSize});
        round.set("simulated", std::uint64_t{r.simulated});
        JsonValue err = JsonValue::object();
        for (std::size_t k = 0;
             k < r.meanAbsErrPct.size() && k < report.objectives.size();
             ++k)
            err.set(objectiveName(report.objectives[k]),
                    r.meanAbsErrPct[k]);
        round.set("mean_abs_err_pct", std::move(err));
        rounds.push(std::move(round));
    }
    v.set("rounds", std::move(rounds));

    JsonValue frontier = JsonValue::array();
    for (const auto &fp : report.frontier) {
        JsonValue point = JsonValue::object();
        JsonValue values = JsonValue::object();
        for (std::size_t k = 0;
             k < fp.values.size() && k < report.objectives.size(); ++k)
            values.set(objectiveName(report.objectives[k]),
                       fp.values[k]);
        point.set("values", std::move(values));
        point.set("uncertainty", fp.uncertainty);
        JsonValue coords = JsonValue::object();
        for (std::size_t d = 0;
             d < fp.point.size() && d < report.paramNames.size(); ++d)
            coords.set(report.paramNames[d], fp.point[d]);
        point.set("point", std::move(coords));
        frontier.push(std::move(point));
    }
    v.set("frontier", std::move(frontier));
    return v;
}

const std::vector<ReportFormat> &
allReportFormats()
{
    static const std::vector<ReportFormat> formats = {
        ReportFormat::Text, ReportFormat::Markdown, ReportFormat::Csv,
        ReportFormat::Json};
    return formats;
}

std::string
reportFormatName(ReportFormat f)
{
    switch (f) {
      case ReportFormat::Text:
        return "text";
      case ReportFormat::Markdown:
        return "markdown";
      case ReportFormat::Csv:
        return "csv";
      case ReportFormat::Json:
        return "json";
    }
    return "?";
}

bool
parseReportFormat(const std::string &name, ReportFormat &out)
{
    for (ReportFormat f : allReportFormats()) {
        if (name == reportFormatName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

ReportFormat
reportFormatByName(const std::string &name)
{
    ReportFormat f;
    if (!parseReportFormat(name, f))
        throw std::invalid_argument(
            "unknown report format '" + name +
            "' (known: text, markdown, csv, json)");
    return f;
}

bool
reportFormatSupports(ReportFormat format, CampaignKind kind)
{
    if (format == ReportFormat::Text || format == ReportFormat::Json)
        return true;
    return kind == CampaignKind::Suite || kind == CampaignKind::Explore;
}

namespace
{

[[noreturn]] void
unsupported(ReportFormat f, const CampaignResult &result)
{
    throw std::invalid_argument(
        reportFormatName(f) + " output is not defined for " +
        campaignKindName(result.kind) +
        " results (use text or json)");
}

std::string
trainText(const CampaignResult &r)
{
    return "saved " + r.modelPath + " (" +
           std::to_string(r.coefficientModels) +
           " coefficient models, trace length " +
           std::to_string(r.traceLength) + ")\n";
}

std::string
evaluateText(const CampaignResult &r)
{
    return "MSE(%) " + describeBoxplot(r.evaluation.summary) + "\n";
}

class TextSink : public ReportSink
{
  public:
    ReportFormat format() const override { return ReportFormat::Text; }

    void
    write(const CampaignResult &result, std::ostream &os) const override
    {
        switch (result.kind) {
          case CampaignKind::Suite:
            os << renderSuiteText(result.suite);
            return;
          case CampaignKind::Explore:
            os << renderExploreReport(result.explore);
            return;
          case CampaignKind::Train:
            os << trainText(result);
            return;
          case CampaignKind::Evaluate:
            os << evaluateText(result);
            return;
        }
    }
};

class MarkdownSink : public ReportSink
{
  public:
    ReportFormat
    format() const override
    {
        return ReportFormat::Markdown;
    }

    void
    write(const CampaignResult &result, std::ostream &os) const override
    {
        switch (result.kind) {
          case CampaignKind::Suite:
            os << renderSuiteMarkdown(result.suite);
            return;
          case CampaignKind::Explore:
            writeExplore(result.explore, os);
            return;
          case CampaignKind::Train:
          case CampaignKind::Evaluate:
            unsupported(ReportFormat::Markdown, result);
        }
    }

  private:
    static void
    writeExplore(const ExploreReport &report, std::ostream &os)
    {
        os << "**predicted-vs-simulated error by round (mean |err| %)**"
           << "\n\n| round | front | sims |";
        for (Objective o : report.objectives)
            os << " " << objectiveName(o) << " |";
        os << "\n|---|---|---|";
        for (std::size_t k = 0; k < report.objectives.size(); ++k)
            os << "---|";
        os << "\n";
        for (const auto &r : report.rounds) {
            os << "| " << (r.round == 0 ? "0 (held-out)" : fmt(r.round))
               << " | " << (r.round == 0 ? "-" : fmt(r.frontSize))
               << " | " << fmt(r.simulated) << " |";
            for (double e : r.meanAbsErrPct)
                os << " " << fmt(e, 2) << " |";
            os << "\n";
        }
        os << "\n**Pareto frontier ("
           << std::to_string(report.frontier.size())
           << " non-dominated configurations)**\n\n|";
        for (Objective o : report.objectives)
            os << " " << objectiveName(o) << " |";
        os << " uncert |";
        for (const auto &p : report.paramNames)
            os << " " << p << " |";
        os << "\n|";
        for (std::size_t k = 0;
             k < report.objectives.size() + 1 + report.paramNames.size();
             ++k)
            os << "---|";
        os << "\n";
        for (const auto &fp : report.frontier) {
            os << "|";
            for (double v : fp.values)
                os << " " << fmt(v, 4) << " |";
            os << " " << fmt(fp.uncertainty, 3) << " |";
            for (double v : fp.point)
                os << " " << fmtParam(v) << " |";
            os << "\n";
        }
    }
};

class CsvSink : public ReportSink
{
  public:
    ReportFormat format() const override { return ReportFormat::Csv; }

    void
    write(const CampaignResult &result, std::ostream &os) const override
    {
        switch (result.kind) {
          case CampaignKind::Suite:
            os << renderSuiteCsv(result.suite);
            return;
          case CampaignKind::Explore:
            writeExplore(result.explore, os);
            return;
          case CampaignKind::Train:
          case CampaignKind::Evaluate:
            unsupported(ReportFormat::Csv, result);
        }
    }

  private:
    /** One row per frontier configuration — the result's data table. */
    static void
    writeExplore(const ExploreReport &report, std::ostream &os)
    {
        for (Objective o : report.objectives)
            os << objectiveName(o) << ",";
        os << "uncertainty";
        for (const auto &p : report.paramNames)
            os << "," << p;
        os << "\n";
        for (const auto &fp : report.frontier) {
            for (double v : fp.values)
                os << fmt(v, 6) << ",";
            os << fmt(fp.uncertainty, 6);
            for (double v : fp.point)
                os << "," << fmtParam(v);
            os << "\n";
        }
    }
};

class JsonSink : public ReportSink
{
  public:
    ReportFormat format() const override { return ReportFormat::Json; }

    void
    write(const CampaignResult &result, std::ostream &os) const override
    {
        os << writeJson(campaignResultToJson(result), 2) << "\n";
    }
};

} // anonymous namespace

JsonValue
campaignResultToJson(const CampaignResult &result)
{
    switch (result.kind) {
      case CampaignKind::Suite:
        return suiteToJson(result.suite);
      case CampaignKind::Explore:
        return exploreToJson(result.explore);
      case CampaignKind::Train: {
        JsonValue v = JsonValue::object();
        v.set("kind", "train");
        v.set("benchmark", result.benchmark);
        v.set("domain", domainSpecName(result.domain));
        v.set("model_path", result.modelPath);
        v.set("coefficient_models",
              std::uint64_t{result.coefficientModels});
        v.set("trace_length", std::uint64_t{result.traceLength});
        return v;
      }
      case CampaignKind::Evaluate: {
        JsonValue v = JsonValue::object();
        v.set("kind", "evaluate");
        v.set("benchmark", result.benchmark);
        v.set("domain", domainSpecName(result.domain));
        v.set("model_path", result.modelPath);
        v.set("mse_percent", boxplotToJson(result.evaluation.summary));
        v.set("mse_per_test",
              doubleArray(result.evaluation.msePerTest));
        return v;
      }
    }
    throw std::logic_error("unhandled campaign kind in report JSON");
}

std::unique_ptr<ReportSink>
makeReportSink(ReportFormat format)
{
    switch (format) {
      case ReportFormat::Text:
        return std::make_unique<TextSink>();
      case ReportFormat::Markdown:
        return std::make_unique<MarkdownSink>();
      case ReportFormat::Csv:
        return std::make_unique<CsvSink>();
      case ReportFormat::Json:
        return std::make_unique<JsonSink>();
    }
    throw std::logic_error("unhandled report format");
}

std::string
renderReport(const CampaignResult &result, ReportFormat format)
{
    std::ostringstream os;
    makeReportSink(format)->write(result, os);
    return os.str();
}

} // namespace wavedyn
