/**
 * @file
 * Rendering of campaign results — the output half of the declarative
 * campaign API.
 *
 * Two layers:
 *  - the raw suite renderers (text / Markdown / CSV), kept stable
 *    because golden regression tests pin their bytes;
 *  - the ReportSink abstraction: one polymorphic writer per output
 *    format (text, markdown, csv, json) that renders any
 *    CampaignResult, so every consumer — CLI subcommands, the `run`
 *    subcommand, CI diff steps — speaks one interface. The JSON sink
 *    is the machine-readable format `wavedyn_cli diff` compares.
 */

#ifndef WAVEDYN_CAMPAIGN_REPORT_HH
#define WAVEDYN_CAMPAIGN_REPORT_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/suite.hh"
#include "util/json.hh"

namespace wavedyn
{

/** ASCII table of the accuracy cells (median [q1, q3] per domain). */
std::string renderSuiteText(const SuiteReport &report);

/** GitHub-flavoured Markdown table of the same content. */
std::string renderSuiteMarkdown(const SuiteReport &report);

/**
 * CSV with one row per (benchmark, domain, test configuration):
 * benchmark,domain,config_index,mse_percent.
 */
std::string renderSuiteCsv(const SuiteReport &report);

/** Full-fidelity JSON document of a suite report (cells + medians). */
JsonValue suiteToJson(const SuiteReport &report);

/** Full-fidelity JSON document of an exploration report. */
JsonValue exploreToJson(const ExploreReport &report);

/**
 * The JSON report document of any campaign result — exactly what the
 * JSON sink writes (minus the trailing newline and indentation, which
 * are the sink's).
 */
JsonValue campaignResultToJson(const CampaignResult &result);

/** Output formats a campaign result can be rendered in. */
enum class ReportFormat
{
    Text,     //!< deterministic ASCII tables (the golden-pinned form)
    Markdown, //!< GitHub-flavoured tables
    Csv,      //!< one flat table of the result's primary data
    Json,     //!< full-fidelity machine-readable document
};

/** All formats, declaration order. */
const std::vector<ReportFormat> &allReportFormats();

/** CLI name of a format ("text", "markdown", "csv", "json"). */
std::string reportFormatName(ReportFormat f);

/** Parse a format name; returns false on unknown names. */
bool parseReportFormat(const std::string &name, ReportFormat &out);

/** parseReportFormat that throws std::invalid_argument with names. */
ReportFormat reportFormatByName(const std::string &name);

/**
 * Whether @p format can render results of @p kind (markdown/csv cover
 * suite and explore only). Lets a caller reject an impossible
 * format/kind pairing *before* spending a campaign's worth of
 * simulation on a result it cannot write.
 */
bool reportFormatSupports(ReportFormat format, CampaignKind kind);

/**
 * A pluggable report writer. Sinks are stateless: one sink can render
 * any number of results to any number of streams.
 */
class ReportSink
{
  public:
    virtual ~ReportSink() = default;

    virtual ReportFormat format() const = 0;

    /**
     * Render one campaign result. Every kind renders in text and
     * json; markdown and csv cover suite and explore results and
     * throw std::invalid_argument for train/evaluate (there is no
     * table to speak of).
     */
    virtual void write(const CampaignResult &result,
                       std::ostream &os) const = 0;
};

/** Construct the sink for a format. */
std::unique_ptr<ReportSink> makeReportSink(ReportFormat format);

/** Convenience: render a result to a string via the format's sink. */
std::string renderReport(const CampaignResult &result,
                         ReportFormat format);

} // namespace wavedyn

#endif // WAVEDYN_CAMPAIGN_REPORT_HH
