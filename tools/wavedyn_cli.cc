/**
 * @file
 * wavedyn command-line tool — a thin shell over the declarative
 * campaign API (campaign/campaign.hh).
 *
 * Subcommands:
 *   run     <campaign.json> [--jobs N] [--format F] [--out PATH]
 *           [--validate]
 *       run any campaign from its JSON spec — the primary entry
 *       point. --validate parses and validates without running.
 *
 *   suite   [--scale smoke|quick|full] [--train N] [--test N]
 *           [--samples N] [--interval N] [--coeffs K] [--dvm T]
 *           [--generate N --family F --scenario-seed S]
 *       the Figure 8 campaign as a one-shot report, over the paper
 *       twelve or over N generated scenarios of a workload family.
 *       Bare generation flags dispatch here too, so
 *       `wavedyn_cli --generate 8 --family mixed --scenario-seed 7`
 *       runs a generated-scenario campaign directly.
 *
 *   explore <bench...> | --generate N [--family F --scenario-seed S]
 *           [--objectives cpi,energy,avf] [--budget K] [--per-round k]
 *           [--sweep N] [--scale ...] [--train N] [--test N] ...
 *       prediction-driven design-space exploration (see
 *       dse/explorer.hh). The report on stdout is byte-identical for
 *       any --jobs; progress goes to stderr.
 *
 *   train   <benchmark> <domain> <model.txt> [--train N] [--samples N]
 *           [--interval N] [--coeffs K] [--dvm THRESH]
 *       simulate a training campaign and save a trained predictor.
 *
 *   evaluate <benchmark> <domain> <model.txt> [--test N] [--interval N]
 *       simulate fresh test configurations and report MSE(%).
 *
 *   predict <model.txt> <p1> .. <p9>
 *       load a predictor and print the predicted dynamics trace at the
 *       given design point (Table 2 order); a point off the training
 *       grid errors naming the offending coordinate.
 *
 *   generate <N> [--family F] [--scenario-seed S]
 *       print the N generated profiles of a family without running
 *       anything (inspection aid for the determinism contract).
 *
 *   diff    <a.json> <b.json> [--tol T]
 *       machine-readable report comparison: exact for integers,
 *       strings and booleans, --tol T for doubles (relative above 1,
 *       absolute below). Exit 0 when equal, 1 with one difference per
 *       line (field paths) otherwise — the merge/CI counterpart of
 *       the JSON report sink. Two names denoting one file are loaded
 *       and parsed once, not twice.
 *
 *   cache   stats|gc|verify [--cache-dir D] [--max-age-days N]
 *           [--max-bytes N]
 *       maintain a result-cache directory (cache/store.hh): usage
 *       totals, garbage collection by age/size, integrity check.
 *
 *   trace   <file> [--summarize]
 *       inspect and validate a telemetry side file — either a Chrome
 *       trace-event document (--trace-out) or a wavedyn-metrics-v1
 *       document (--metrics-out). Checks structural invariants (span
 *       nesting per thread; cache hits + misses == scheduler runs;
 *       histogram counts match their buckets) and exits 1 on any
 *       violation. --summarize adds the top span names by total
 *       duration (traces) or the full counter table (metrics).
 *
 *   info    <model.txt>
 *       describe a saved predictor.
 *
 * Every campaign subcommand (suite / explore / train / evaluate)
 * accepts --dump-spec: print the equivalent campaign JSON on stdout
 * and exit without running — the migration path from flags to specs
 * (`wavedyn_cli suite ... --dump-spec > c.json; wavedyn_cli run c.json`
 * reproduces the identical report). Campaign reports go to stdout
 * (byte-identical for every --jobs setting); progress and banners go
 * to stderr, so reports are safe to redirect, diff and pin.
 *
 * Result cache: every campaign entry point takes --cache-dir DIR (or
 * the WAVEDYN_CACHE_DIR environment variable; --no-cache overrides
 * both). With a cache directory set, previously simulated runs are
 * replayed byte-exactly from disk instead of recomputed — reports are
 * identical cold or warm; hit/miss counts go to stderr only. The cache
 * is also the crash-resume record: every run is stored atomically as
 * it finishes, so rerunning an interrupted command with the same
 * --cache-dir recomputes only the runs that never landed.
 *
 * Telemetry: every campaign entry point takes --trace-out FILE (or the
 * WAVEDYN_TRACE environment variable) to write a Chrome trace-event
 * span timeline, --metrics-out FILE for the merged counters/histograms
 * document, and prints a final `-- telemetry:` summary on stderr.
 * Telemetry observes and never participates: stdout reports are
 * byte-identical with telemetry on or off, at any --jobs
 * (tests/integration/telemetry_golden_test.cc pins this).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "cache/store.hh"
#include "campaign/campaign.hh"
#include "campaign/report.hh"
#include "core/serialize.hh"
#include "telemetry/logsink.hh"
#include "telemetry/telemetry.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"
#include "util/json_diff.hh"
#include "util/options.hh"
#include "util/parse.hh"
#include "util/table.hh"
#include "workload/generator.hh"

using namespace wavedyn;

namespace
{

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  wavedyn_cli run <campaign.json> [--jobs N] [--format F]\n"
        "              [--out PATH] [--validate]\n"
        "  wavedyn_cli suite [--scale smoke|quick|full] [--train N]\n"
        "              [--test N] [--samples N] [--interval N]\n"
        "              [--coeffs K] [--dvm T]\n"
        "              [--generate N --family F --scenario-seed S]\n"
        "  wavedyn_cli explore <bench...> | --generate N [--family F]\n"
        "              [--objectives cpi,bips,power,energy,avf]\n"
        "              [--budget K] [--per-round k] [--sweep N]\n"
        "              [--scale S] [--train N] [--test N] [--samples N]\n"
        "              [--interval N] [--coeffs K] [--dvm T] [--jobs N]\n"
        "  wavedyn_cli train <benchmark> <cpi|power|avf|iqavf> "
        "<model.txt>\n"
        "              [--train N] [--samples N] [--interval N] "
        "[--coeffs K] [--dvm T]\n"
        "  wavedyn_cli evaluate <benchmark> <domain> <model.txt> "
        "[--test N] [--interval N]\n"
        "  wavedyn_cli predict <model.txt> <p1..p9>\n"
        "  wavedyn_cli generate <N> [--family F] [--scenario-seed S]\n"
        "  wavedyn_cli diff <a.json> <b.json> [--tol T]\n"
        "  wavedyn_cli cache stats|gc|verify [--cache-dir D]\n"
        "              [--max-age-days N] [--max-bytes N]\n"
        "  wavedyn_cli trace <file> [--summarize]\n"
        "  wavedyn_cli info <model.txt>\n"
        "\n"
        "declarative campaigns:\n"
        "  every campaign subcommand (suite/explore/train/evaluate)\n"
        "  accepts --dump-spec: print the equivalent campaign JSON and\n"
        "  exit. `wavedyn_cli run <spec.json>` re-runs it identically;\n"
        "  see the README's \"Declarative campaigns\" section.\n"
        "\n"
        "common options:\n"
        "  --jobs N    simulate/train with N worker threads (default:\n"
        "              WAVEDYN_JOBS or hardware concurrency; 1 = serial;\n"
        "              reports are identical for every N)\n"
        "  --format F  report format: text (default), markdown, csv,\n"
        "              json\n"
        "  --out PATH  write the report to PATH instead of stdout\n"
        "  --cache-dir D  content-addressed result cache: replay\n"
        "              previously simulated runs byte-exactly from D\n"
        "              (default: WAVEDYN_CACHE_DIR; unset = no cache)\n"
        "  --no-cache  ignore --cache-dir and WAVEDYN_CACHE_DIR\n"
        "  --trace-out F  write a Chrome trace-event span timeline to F\n"
        "              (default: WAVEDYN_TRACE; Perfetto-loadable;\n"
        "              reports stay byte-identical with or without it)\n"
        "  --metrics-out F  write merged counters/histograms JSON to F\n"
        "\n"
        "scenario generation (suite / explore / generate):\n"
        "  --generate N        run N generated scenarios instead of the\n"
        "                      paper twelve\n"
        "  --family F          workload family: compute-bound,\n"
        "                      memory-streaming, phase-chaotic,\n"
        "                      branchy-irregular, mixed (default),\n"
        "                      cache-thrash\n"
        "  --scenario-seed S   generation seed (default 1); profile i of\n"
        "                      (family, seed) is always the same profile\n";
    return 2;
}

/** Scenario count: 0 is the "flag not given" sentinel, so it errors
 *  too — a clear message instead of a silently different campaign. */
std::size_t
parseCount(const std::string &val, const char *flag)
{
    constexpr std::uint64_t kMaxScenarios = 65536;
    std::uint64_t n = 0;
    if (!parseUint64(val, n) || n == 0 || n > kMaxScenarios)
        throw std::invalid_argument(std::string(flag) + " must be in [1, " +
                                    std::to_string(kMaxScenarios) +
                                    "], got '" + val + "'");
    return static_cast<std::size_t>(n);
}

/** Generation seed: any uint64, strictly parsed. */
std::uint64_t
parseSeed(const std::string &val)
{
    std::uint64_t seed = 0;
    if (!parseUint64(val, seed))
        throw std::invalid_argument(
            "--scenario-seed must be a non-negative integer, got '" +
            val + "'");
    return seed;
}

/** Strict double parse for --dvm: full-string, finite, clear error. */
double
parseDouble(const std::string &val, const std::string &flag)
{
    double d = 0.0;
    bool ok = !val.empty();
    if (ok) {
        try {
            std::size_t pos = 0;
            d = std::stod(val, &pos);
            ok = pos == val.size() && std::isfinite(d);
        } catch (const std::exception &) {
            ok = false;
        }
    }
    if (!ok)
        throw std::invalid_argument(flag + " must be a finite number, "
                                    "got '" + val + "'");
    return d;
}

/** Sweep-size / jobs flags: non-negative, capped at a sanity bound. */
std::size_t
parseSize(const std::string &val, const std::string &flag)
{
    constexpr std::uint64_t kMaxSize = 1000000000; // 1e9
    std::uint64_t n = 0;
    if (!parseUint64(val, n) || n > kMaxSize)
        throw std::invalid_argument(flag +
                                    " must be a non-negative integer "
                                    "<= 1000000000, got '" + val + "'");
    return static_cast<std::size_t>(n);
}

/** Pull "--name value" options (and boolean flags) out of argv. */
struct Options
{
    std::size_t train = 60;
    std::size_t test = 20;
    std::size_t samples = 128;
    std::size_t interval = 256;
    std::size_t coeffs = 16;
    std::size_t jobs = 0; // 0 => WAVEDYN_JOBS / hardware concurrency
    double dvmThreshold = -1.0; // <0 => DVM off
    std::string scale = "quick";
    std::size_t generate = 0; // 0 => paper benchmarks
    std::string family = "mixed";
    std::uint64_t scenarioSeed = 1;
    //! whether --family / --scenario-seed appeared explicitly, so the
    //! suite path can reject them without --generate instead of
    //! silently running the paper twelve.
    bool familySet = false;
    bool scenarioSeedSet = false;
    //! whether the sweep-size flags appeared explicitly, so campaigns
    //! can default them from --scale without clobbering user choices.
    bool trainSet = false;
    bool testSet = false;
    bool samplesSet = false;
    bool intervalSet = false;
    // explore options
    std::string objectives = "cpi,energy,avf";
    std::size_t budget = 4;    //!< refinement simulations total
    std::size_t perRound = 2;  //!< frontier points simulated per round
    std::size_t sweep = 0;     //!< swept-point cap; 0 = full space
    // output / spec options
    std::string format = "text";
    std::string outPath;
    bool dumpSpec = false;     //!< print the campaign JSON and exit
    bool validateOnly = false; //!< run: parse + validate, don't run
    // result-cache options
    std::string cacheDir;      //!< empty => WAVEDYN_CACHE_DIR / off
    bool noCache = false;      //!< overrides --cache-dir and the env
    std::uint64_t maxAgeDays = 0;  //!< cache gc: 0 = no age limit
    std::uint64_t maxBytes = 0;    //!< cache gc: 0 = no size limit
    // diff options
    double tolerance = 0.0;
    // telemetry options
    std::string traceOut;      //!< empty => WAVEDYN_TRACE / no trace
    std::string metricsOut;    //!< empty => no metrics file
    bool summarize = false;    //!< trace: print the duration summary
};

/**
 * The one registry of every flag the CLI knows: its name and whether
 * it consumes a value. Subcommands pick subsets (see the allowed
 * lists), but value-taking, typo rejection and the handler dispatch
 * in parseOptions are defined here exactly once — a new flag that is
 * missing from this table or from the handler chain fails loudly for
 * every subcommand, not just the one it was added for.
 */
struct FlagDef
{
    const char *name;
    bool takesValue;
};

constexpr FlagDef kFlagRegistry[] = {
    {"--train", true},      {"--test", true},
    {"--samples", true},    {"--interval", true},
    {"--coeffs", true},     {"--jobs", true},
    {"--dvm", true},        {"--scale", true},
    {"--format", true},     {"--out", true},
    {"--generate", true},   {"--family", true},
    {"--scenario-seed", true}, {"--objectives", true},
    {"--budget", true},     {"--per-round", true},
    {"--sweep", true},      {"--tol", true},
    {"--cache-dir", true},  {"--max-age-days", true},
    {"--max-bytes", true},  {"--dump-spec", false},
    {"--validate", false},  {"--no-cache", false},
    {"--trace-out", true},  {"--metrics-out", true},
    {"--summarize", false},
};

const FlagDef *
findFlag(const std::string &name)
{
    for (const FlagDef &f : kFlagRegistry)
        if (name == f.name)
            return &f;
    return nullptr;
}

/**
 * The flags every campaign entry point shares (run / suite / explore /
 * train / evaluate), plus the subcommand's own extras. One builder so
 * a new common flag — --cache-dir was the motivating case — reaches
 * every entry point by construction instead of by editing five lists.
 */
std::vector<std::string>
campaignFlags(std::initializer_list<const char *> extras)
{
    std::vector<std::string> allowed = {"--jobs", "--format", "--out",
                                        "--cache-dir", "--no-cache",
                                        "--trace-out", "--metrics-out"};
    for (const char *e : extras)
        allowed.push_back(e);
    return allowed;
}

Options
parseOptions(int argc, char **argv, int first,
             const std::vector<std::string> &allowed)
{
    // Everything from `first` on must be flags drawn from this
    // subcommand's `allowed` list. A typo like --genrate, a value-less
    // flag, or a flag another subcommand owns (--generate on train)
    // must error, not be silently dropped (and, via the bare-flag
    // suite dispatch, kick off a campaign the user never asked for).
    Options o;
    for (int i = first; i < argc;) {
        std::string key = argv[i];
        const FlagDef *def = findFlag(key);
        bool ok = def != nullptr;
        if (ok) {
            ok = false;
            for (const std::string &a : allowed)
                ok = ok || key == a;
        }
        if (!ok)
            throw std::invalid_argument(
                "option '" + key + "' is unknown or does not apply to "
                "this command");
        if (!def->takesValue) {
            if (key == "--dump-spec")
                o.dumpSpec = true;
            else if (key == "--validate")
                o.validateOnly = true;
            else if (key == "--no-cache")
                o.noCache = true;
            else if (key == "--summarize")
                o.summarize = true;
            else
                throw std::logic_error("boolean flag in registry has "
                                       "no handler: " + key);
            ++i;
            continue;
        }
        // A flag at the end of the line, or followed by another flag
        // ("--scale --jobs 4"), has no value; o.scale = "--jobs" would
        // silently drop the jobs setting on the floor.
        if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
            throw std::invalid_argument("option '" + key +
                                        "' is missing its value");
        std::string val = argv[i + 1];
        if (key == "--train") {
            o.train = parseSize(val, key);
            o.trainSet = true;
        } else if (key == "--test") {
            o.test = parseSize(val, key);
            o.testSet = true;
        } else if (key == "--samples") {
            o.samples = parseSize(val, key);
            o.samplesSet = true;
        } else if (key == "--interval") {
            o.interval = parseSize(val, key);
            o.intervalSet = true;
        } else if (key == "--objectives")
            o.objectives = val;
        else if (key == "--budget")
            o.budget = parseSize(val, key);
        else if (key == "--per-round")
            o.perRound = parseSize(val, key);
        else if (key == "--sweep")
            o.sweep = parseSize(val, key);
        else if (key == "--coeffs")
            o.coeffs = parseSize(val, key);
        else if (key == "--jobs")
            o.jobs = parseSize(val, key);
        else if (key == "--dvm")
            o.dvmThreshold = parseDouble(val, key);
        else if (key == "--scale")
            o.scale = val;
        else if (key == "--format")
            o.format = val;
        else if (key == "--out")
            o.outPath = val;
        else if (key == "--cache-dir")
            o.cacheDir = val;
        else if (key == "--max-age-days") {
            if (!parseUint64(val, o.maxAgeDays))
                throw std::invalid_argument(
                    "--max-age-days must be a non-negative integer, "
                    "got '" + val + "'");
        } else if (key == "--max-bytes") {
            if (!parseUint64(val, o.maxBytes))
                throw std::invalid_argument(
                    "--max-bytes must be a non-negative integer, got '" +
                    val + "'");
        } else if (key == "--tol") {
            o.tolerance = parseDouble(val, key);
            if (o.tolerance < 0.0)
                throw std::invalid_argument("--tol must be >= 0");
        } else if (key == "--trace-out")
            o.traceOut = val;
        else if (key == "--metrics-out")
            o.metricsOut = val;
        else if (key == "--generate")
            o.generate = parseCount(val, "--generate");
        else if (key == "--family") {
            o.family = val;
            o.familySet = true;
        } else if (key == "--scenario-seed") {
            o.scenarioSeed = parseSeed(val);
            o.scenarioSeedSet = true;
        } else {
            // Unreachable while every value flag in the registry has a
            // branch above; user-facing unknown-flag errors come from
            // the registry/allowed check at the top of the loop.
            throw std::logic_error("flag in registry has no handler: " +
                                   key);
        }
        i += 2;
    }
    setJobs(o.jobs);
    return o;
}

/**
 * Resolve the cache directory of a command: --no-cache beats
 * --cache-dir beats WAVEDYN_CACHE_DIR; empty = caching off.
 */
std::string
resolveCacheDir(const Options &o)
{
    if (o.noCache)
        return "";
    if (!o.cacheDir.empty())
        return o.cacheDir;
    const char *env = std::getenv("WAVEDYN_CACHE_DIR");
    return env != nullptr ? std::string(env) : std::string();
}

/**
 * Install (or clear) the process-global result cache from the parsed
 * flags — campaign schedulers pick it up at construction.
 */
void
configureResultCache(const Options &o)
{
    std::string dir = resolveCacheDir(o);
    if (dir.empty()) {
        setActiveResultCache(nullptr);
        return;
    }
    // Every key of a campaign is distinct, so each lookup reads its
    // disk record once; the directory appears with the first store.
    setActiveResultCache(std::make_shared<ResultCache>(dir));
}

/** Resolve the trace output: --trace-out beats WAVEDYN_TRACE; empty =
 *  no trace (metrics are always recorded, they cost almost nothing). */
std::string
resolveTracePath(const Options &o)
{
    if (!o.traceOut.empty())
        return o.traceOut;
    const char *env = std::getenv("WAVEDYN_TRACE");
    return env != nullptr ? std::string(env) : std::string();
}

/**
 * Per-command telemetry setup: turn span recording on when any trace
 * output is wanted. Returns the resolved trace path.
 */
std::string
configureTelemetry(const Options &o)
{
    std::string tracePath = resolveTracePath(o);
    if (!tracePath.empty())
        setTracingEnabled(true);
    return tracePath;
}

/**
 * End-of-command telemetry: write the side files the user asked for
 * and print the `-- telemetry:` summary. stderr + side files only —
 * never stdout, where the report must stay byte-identical.
 */
void
emitTelemetry(const std::string &tracePath, const Options &o,
              std::uint64_t wallUs)
{
    if (!tracePath.empty()) {
        writeTraceFile(tracePath, 0, "wavedyn");
        SerializedLog::stderrLog().line(
            "-- telemetry: wrote " + tracePath + " (" +
            std::to_string(spanTracer().events().size()) + " events)");
    }
    if (!o.metricsOut.empty()) {
        writeMetricsFile(o.metricsOut);
        SerializedLog::stderrLog().line("-- telemetry: wrote " +
                                        o.metricsOut);
    }
    std::cerr << renderTelemetrySummary(metricsRegistry().snapshot(),
                                        wallUs, currentJobs());
}

/**
 * Render a campaign report through @p sink to stdout, or — with
 * --out — publish it to @p outPath atomically (render in memory,
 * write temp + rename via util/atomic_file), so a crash or full disk
 * never leaves a torn report where a complete one stood.
 */
void
emitReport(ReportSink &sink, const CampaignResult &result,
           const std::string &outPath)
{
    if (outPath.empty()) {
        sink.write(result, std::cout);
        return;
    }
    std::ostringstream rendered;
    sink.write(result, rendered);
    if (!writeFileAtomic(outPath, rendered.str()))
        throw std::runtime_error("cannot write report to '" + outPath +
                                 "'");
    std::cerr << "wrote " << outPath << "\n";
}

/**
 * Worker-side live progress printer, routed through the serialized
 * stderr writer: one mutex, at most ~10 repaints/sec, and the final
 * done == total repaint always lands. Called concurrently from pool
 * workers; the scheduler's atomic counter hands out monotonic counts,
 * but the count fetch and the print are separate steps, so a worker
 * holding a lower count can reach the writer *after* the final one —
 * the non-increasing guard below keeps a stale count from being the
 * last line on screen. A batch with a different total resets the
 * guard; repeated same-size batches only show their final line, which
 * the surrounding phase banners disambiguate. stderr only — stdout
 * reports stay byte-identical for every --jobs setting.
 */
RunProgress
stderrRunProgress(std::shared_ptr<std::atomic<std::uint64_t>> cachedRuns,
                  std::shared_ptr<std::atomic<std::uint64_t>> storeFails)
{
    return [cachedRuns, storeFails](std::size_t done,
                                    std::size_t total) {
        static std::mutex mu;
        static std::size_t lastDone = 0;
        static std::size_t lastTotal = 0;
        {
            std::lock_guard<std::mutex> lock(mu);
            // done == total always prints: it is a fresh batch's final
            // line whenever the guard state came from an earlier batch.
            if (total == lastTotal && done <= lastDone && done != total)
                return;
            lastDone = done;
            lastTotal = total;
        }
        std::uint64_t cached =
            cachedRuns->load(std::memory_order_relaxed);
        std::uint64_t failed =
            storeFails->load(std::memory_order_relaxed);
        std::string text = "   [sim] " + std::to_string(done) + "/" +
                           std::to_string(total) + " runs";
        if (cached > 0)
            text += " (" + std::to_string(cached) + " cached)";
        // A failing cache store degrades the cache, not the result —
        // but silently eating it would hide a dead disk until the next
        // "cold" run takes hours. Keep it on the live ticker.
        if (failed > 0)
            text += " (" + std::to_string(failed) + " store-fail)";
        SerializedLog &log = SerializedLog::stderrLog();
        if (done == total)
            log.tickerFinal(text);
        else
            log.ticker(text);
    };
}

/**
 * The CLI's standard hooks: all progress on stderr, with the live run
 * ticker annotated by how many runs the result cache served so far.
 */
CampaignHooks
stderrHooks()
{
    // Shared by the hit/store-failed hooks (incrementing) and the
    // ticker (reading, worker threads).
    auto cachedRuns = std::make_shared<std::atomic<std::uint64_t>>(0);
    auto storeFails = std::make_shared<std::atomic<std::uint64_t>>(0);
    CampaignHooks hooks;
    // Banner lines share the serialized writer with the run ticker so
    // a banner never lands in the middle of a '\r' repaint.
    hooks.phase = [](const std::string &msg) {
        SerializedLog::stderrLog().line("-- " + msg);
    };
    hooks.scenarioDone = [](const std::string &bench, std::size_t done,
                            std::size_t total) {
        SerializedLog::stderrLog().line(
            "  [" + std::to_string(done) + "/" + std::to_string(total) +
            "] " + bench + " assembled");
    };
    hooks.runProgress = stderrRunProgress(cachedRuns, storeFails);
    hooks.runCacheHit = [cachedRuns](const std::string &) {
        cachedRuns->fetch_add(1, std::memory_order_relaxed);
    };
    hooks.runCacheStoreFailed = [storeFails](const std::string &) {
        storeFails->fetch_add(1, std::memory_order_relaxed);
    };
    return hooks;
}

/** Parse a --scale value into sizes (shared by suite and explore). */
ScaledSizes
sizesFromScaleFlag(const std::string &scale)
{
    if (scale == "smoke")
        return sizesFor(Scale::Smoke);
    if (scale == "quick")
        return sizesFor(Scale::Quick);
    if (scale == "full")
        return sizesFor(Scale::Full);
    throw std::invalid_argument(
        "--scale must be smoke, quick or full, got '" + scale + "'");
}

/** Shared flag checks for generation-capable subcommands. */
void
requireGenerateForFamilyFlags(const Options &o, const char *where)
{
    // Generation flags without --generate would otherwise be silently
    // ignored and a different campaign from the one asked for would
    // run.
    if (o.generate == 0 && (o.familySet || o.scenarioSeedSet))
        throw std::invalid_argument(
            std::string(o.familySet ? "--family" : "--scenario-seed") +
            " requires --generate N on " + where);
}

/** Fill the flag-driven ExperimentSpec fields shared by all builders. */
void
applyExperimentFlags(CampaignSpec &spec, const Options &o,
                     const ScaledSizes &sizes)
{
    spec.experiment.trainPoints = o.trainSet ? o.train
                                             : sizes.trainPoints;
    spec.experiment.testPoints = o.testSet ? o.test : sizes.testPoints;
    spec.experiment.samples = o.samplesSet ? o.samples
                                           : sizes.samplesPerTrace;
    spec.experiment.intervalInstrs =
        o.intervalSet ? o.interval : sizes.intervalInstrs;
    if (o.dvmThreshold >= 0.0) {
        spec.experiment.dvm.enabled = true;
        spec.experiment.dvm.threshold = o.dvmThreshold;
        spec.experiment.dvm.sampleCycles = 200;
    }
    spec.predictor.coefficients = o.coeffs;
}

/** Fill the generation block (or leave it empty) from the flags. */
void
applyGenerationFlags(CampaignSpec &spec, const Options &o)
{
    if (o.generate == 0)
        return;
    spec.scenarios.family = familyByName(o.family);
    spec.scenarios.seed = o.scenarioSeed;
    spec.scenarios.count = o.generate;
}

// ---------------------------------------------------------------------
// flag -> CampaignSpec builders (the old hand-wired subcommand bodies)

CampaignSpec
suiteSpecFromFlags(const Options &o)
{
    requireGenerateForFamilyFlags(o, "the suite");
    ScaledSizes sizes = sizesFromScaleFlag(o.scale);

    CampaignSpec spec;
    spec.kind = CampaignKind::Suite;
    applyExperimentFlags(spec, o, sizes);
    applyGenerationFlags(spec, o);
    if (o.generate == 0) {
        // The spec is self-contained: the scale's benchmark subset is
        // materialised into explicit names, not an implicit default.
        std::vector<std::string> names = benchmarkNames();
        names.resize(std::min<std::size_t>(names.size(),
                                           sizes.benchmarkCount));
        spec.scenarios.names = std::move(names);
    }
    return spec;
}

CampaignSpec
exploreSpecFromFlags(const std::vector<std::string> &names,
                     const Options &o)
{
    if (o.coeffs == 0)
        throw std::invalid_argument("--coeffs must be non-zero");
    if (o.perRound == 0)
        throw std::invalid_argument("--per-round must be non-zero");
    if (!names.empty() && o.generate > 0)
        throw std::invalid_argument(
            "give either benchmark names or --generate N, not both");
    if (names.empty() && o.generate == 0)
        throw std::invalid_argument(
            "explore needs benchmark names or --generate N "
            "(e.g. explore --generate 3 --family mixed)");
    requireGenerateForFamilyFlags(o, "explore");
    ScaledSizes sizes = sizesFromScaleFlag(o.scale);

    CampaignSpec spec;
    spec.kind = CampaignKind::Explore;
    applyExperimentFlags(spec, o, sizes);
    applyGenerationFlags(spec, o);
    spec.scenarios.names = names;
    spec.objectives = parseObjectiveList(o.objectives);
    spec.budget = o.budget;
    spec.perRound = o.perRound;
    spec.maxSweepPoints = o.sweep;
    return spec;
}

CampaignSpec
trainSpecFromFlags(const std::string &bench, Domain domain,
                   const std::string &path, const Options &o)
{
    if (o.coeffs == 0)
        throw std::invalid_argument("--coeffs must be non-zero");
    CampaignSpec spec;
    spec.kind = CampaignKind::Train;
    spec.experiment.trainPoints = o.train;
    spec.experiment.samples = o.samples;
    spec.experiment.intervalInstrs = o.interval;
    // runCampaign's train path clamps the test sweep to 1 regardless
    // (drawn after the training sample, it cannot affect the model);
    // write the effective value so the dumped spec describes what
    // actually runs.
    spec.experiment.testPoints = 1;
    spec.experiment.domains = {domain};
    if (o.dvmThreshold >= 0.0) {
        spec.experiment.dvm.enabled = true;
        spec.experiment.dvm.threshold = o.dvmThreshold;
        spec.experiment.dvm.sampleCycles = 200;
    }
    spec.predictor.coefficients = o.coeffs;
    spec.scenarios.names = {bench};
    spec.domain = domain;
    spec.modelPath = path;
    return spec;
}

CampaignSpec
evaluateSpecFromFlags(const std::string &bench, Domain domain,
                      const std::string &path, const Options &o)
{
    CampaignSpec spec;
    spec.kind = CampaignKind::Evaluate;
    spec.experiment.testPoints = o.test;
    spec.experiment.intervalInstrs = o.interval;
    spec.experiment.domains = {domain};
    spec.scenarios.names = {bench};
    spec.domain = domain;
    spec.modelPath = path;
    return spec;
}

// ---------------------------------------------------------------------
// campaign execution

/**
 * Run one campaign spec (or print it, with --dump-spec) and write the
 * report through the selected sink. The single code path behind every
 * campaign subcommand and `run`.
 */
int
executeSpec(const CampaignSpec &spec, const Options &o)
{
    if (o.dumpSpec) {
        std::cout << writeJson(toJson(spec)) << "\n";
        return 0;
    }
    validateCampaign(spec);
    ReportFormat format = reportFormatByName(o.format);
    // Reject an impossible format/kind pairing before spending a
    // campaign's worth of simulation on a result we cannot write.
    if (!reportFormatSupports(format, spec.kind))
        throw std::invalid_argument(
            reportFormatName(format) + " output is not defined for " +
            campaignKindName(spec.kind) + " results (use text or json)");

    configureResultCache(o);
    std::string tracePath = configureTelemetry(o);
    std::cerr << "-- " << campaignKindName(spec.kind) << " campaign, "
              << currentJobs() << " jobs";
    auto cache = activeResultCache();
    if (cache)
        std::cerr << ", cache " << cache->root();
    std::cerr << "\n";
    std::uint64_t wallStart = telemetryNowUs();
    CampaignResult result = runCampaign(spec, stderrHooks());
    std::uint64_t wallUs = telemetryNowUs() - wallStart;

    // stderr only: the report itself must stay byte-identical between
    // a cold and a warm run of the same spec (CI diffs them). Store
    // failures only appear when non-zero so the common line stays
    // grep-stable.
    if (cache) {
        std::cerr << "-- cache: " << result.cacheHits << " hits, "
                  << result.cacheMisses << " misses, "
                  << result.cacheStores << " stores";
        if (result.cacheStoreFailures > 0)
            std::cerr << ", " << result.cacheStoreFailures
                      << " store failures";
        std::cerr << "\n";
    }
    emitTelemetry(tracePath, o, wallUs);

    auto sink = makeReportSink(format);
    emitReport(*sink, result, o.outPath);
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0)
        return usage();
    std::string path = argv[2];
    Options o = parseOptions(argc, argv, 3,
                             campaignFlags({"--validate"}));

    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        throw std::runtime_error("cannot read campaign spec '" + path +
                                 "'");
    std::ostringstream text;
    text << in.rdbuf();

    CampaignSpec spec;
    try {
        spec = parseCampaignSpec(text.str());
    } catch (const std::exception &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
    if (o.validateOnly) {
        std::cout << "OK " << path << ": "
                  << campaignKindName(spec.kind) << " campaign, "
                  << spec.scenarios.scenarioNames().size()
                  << " scenario(s)\n";
        return 0;
    }
    return executeSpec(spec, o);
}

int
cmdSuite(int argc, char **argv, int first)
{
    Options o = parseOptions(
        argc, argv, first,
        campaignFlags({"--scale", "--train", "--test", "--samples",
                       "--interval", "--coeffs", "--dvm", "--generate",
                       "--family", "--scenario-seed", "--dump-spec"}));
    return executeSpec(suiteSpecFromFlags(o), o);
}

int
cmdExplore(int argc, char **argv)
{
    // Positional scenario names come first; flags after.
    int first = 2;
    std::vector<std::string> names;
    while (first < argc &&
           std::string(argv[first]).rfind("--", 0) != 0)
        names.push_back(argv[first++]);
    Options o = parseOptions(
        argc, argv, first,
        campaignFlags({"--scale", "--train", "--test", "--samples",
                       "--interval", "--coeffs", "--generate",
                       "--family", "--scenario-seed", "--objectives",
                       "--budget", "--per-round", "--sweep", "--dvm",
                       "--dump-spec"}));
    return executeSpec(exploreSpecFromFlags(names, o), o);
}

int
cmdTrain(int argc, char **argv)
{
    if (argc < 5)
        return usage();
    std::string bench = argv[2];
    Domain domain;
    if (!parseDomain(argv[3], domain))
        return usage();
    std::string path = argv[4];
    Options o = parseOptions(
        argc, argv, 5,
        campaignFlags({"--train", "--samples", "--interval", "--coeffs",
                       "--dvm", "--dump-spec"}));
    return executeSpec(trainSpecFromFlags(bench, domain, path, o), o);
}

int
cmdEvaluate(int argc, char **argv)
{
    if (argc < 5)
        return usage();
    std::string bench = argv[2];
    Domain domain;
    if (!parseDomain(argv[3], domain))
        return usage();
    std::string path = argv[4];
    Options o = parseOptions(
        argc, argv, 5,
        campaignFlags({"--test", "--interval", "--dump-spec"}));
    // evaluate bypasses the simulated-campaign checks in
    // validateCampaign (it has no training sweep), so guard its two
    // sizes here with the historical flag-level messages.
    if (o.test == 0)
        throw std::invalid_argument("--test must be non-zero");
    if (o.interval == 0)
        throw std::invalid_argument("--interval must be non-zero");
    return executeSpec(evaluateSpecFromFlags(bench, domain, path, o), o);
}

int
cmdPredict(int argc, char **argv)
{
    // Exactly model + 9 point coordinates: trailing extras would be
    // silently dropped otherwise, unlike every other subcommand.
    if (argc != 3 + 9)
        return usage();
    auto model = loadPredictorFile(argv[2]);
    DesignPoint point;
    for (int i = 0; i < 9; ++i)
        point.push_back(parseDouble(argv[3 + i],
                                    "point coordinate " +
                                        std::to_string(i + 1)));
    // An off-level point throws the message naming the offending
    // coordinate and its allowed levels.
    auto trace = model.predictTrace(point);
    std::cout << "predicted dynamics (" << trace.size()
              << " samples):\n" << sparkline(trace) << "\n";
    for (std::size_t i = 0; i < trace.size(); ++i)
        std::cout << trace[i] << (i + 1 < trace.size() ? " " : "\n");
    return 0;
}

int
cmdGenerate(int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-')
        return usage();
    std::size_t count = parseCount(argv[2], "generate <N>");
    Options o = parseOptions(argc, argv, 3,
                             {"--family", "--scenario-seed"});

    ScenarioGenerator gen(familyByName(o.family), o.scenarioSeed);
    TextTable t("generated scenarios — " + o.family + ", seed " +
                std::to_string(o.scenarioSeed));
    t.header({"name", "segs", "reps", "data KiB", "code KiB", "load",
              "branch", "entropy"});
    for (std::size_t i = 0; i < count; ++i) {
        BenchmarkProfile p = gen.generate(i);
        double load = 0.0, branch = 0.0, entropy = 0.0;
        double w = p.totalWeight();
        std::uint64_t data = 0, code = 0;
        for (const auto &s : p.script) {
            load += s.weight * s.fracLoad;
            branch += s.weight * s.fracBranch;
            entropy += s.weight * s.branchEntropy;
            data = std::max(data, s.dataFootprint);
            code = std::max(code, s.codeFootprint);
        }
        t.row({p.name, fmt(p.script.size()), fmt(p.scriptRepeats),
               fmt(data / 1024), fmt(code / 1024), fmt(load / w, 2),
               fmt(branch / w, 2), fmt(entropy / w, 2)});
    }
    t.print(std::cout);
    std::cout << "(profile i of a (family, seed) pair is immutable: "
                 "rerunning this command\n always prints the same "
                 "scenarios, independent of --jobs or host)\n";
    return 0;
}

int
cmdDiff(int argc, char **argv)
{
    // Exactly two positional documents, then optional --tol.
    if (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-')
        return usage();
    Options o = parseOptions(argc, argv, 4, {"--tol"});
    JsonDiffOptions opts;
    opts.tolerance = o.tolerance;

    JsonFileDiff result = diffJsonFiles(argv[2], argv[3], opts);
    if (result.samePath)
        std::cerr << argv[2] << " and " << argv[3]
                  << " are the same file\n";
    if (result.differences.empty())
        return 0;
    for (const auto &d : result.differences)
        std::cout << d << "\n";
    std::cerr << argv[2] << " and " << argv[3] << " differ\n";
    return 1;
}

int
cmdCache(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string action = argv[2];
    if (action != "stats" && action != "gc" && action != "verify")
        return usage();
    Options o = parseOptions(argc, argv, 3,
                             {"--cache-dir", "--max-age-days",
                              "--max-bytes"});
    std::string dir = resolveCacheDir(o);
    if (dir.empty())
        throw std::invalid_argument(
            "cache " + action + " needs --cache-dir DIR or "
            "WAVEDYN_CACHE_DIR");
    // Maintenance reads an existing cache; it must not create one, or
    // a mistyped path would verify as an empty, valid cache.
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        throw std::runtime_error("cache " + action +
                                 ": no cache directory at '" + dir + "'");

    ResultCache cache(dir);
    if (action == "stats") {
        CacheUsage u = cache.usage();
        std::cout << "result cache " << cache.root() << "\n"
                  << "  sim version:     " << cache.simVersion() << "\n"
                  << "  entries:         " << u.entries << "\n"
                  << "  bytes:           " << u.bytes << "\n"
                  << "  invalid:         " << u.invalidEntries << "\n"
                  << "  other versions:  " << u.otherVersionEntries
                  << "\n"
                  // An unwritable root means every campaign against
                  // this cache silently degrades to store failures —
                  // the first place to look when "warm" runs stay cold.
                  << "  writable:        "
                  << (cache.probeWritable() ? "yes" : "no") << "\n";
        return 0;
    }
    if (action == "verify") {
        std::size_t bad = 0;
        std::vector<CacheEntryInfo> entries = cache.scan();
        for (const CacheEntryInfo &e : entries)
            if (!e.valid) {
                std::cout << "corrupt: " << e.path << "\n";
                ++bad;
            }
        std::cout << (entries.size() - bad) << "/" << entries.size()
                  << " entries valid\n";
        return bad == 0 ? 0 : 1;
    }
    // gc: with no limit flags only invalid entries are collected.
    // Clamp the day->second conversion: an absurd --max-age-days must
    // saturate to "keep everything", not wrap around to a tiny limit
    // that silently empties the cache.
    std::uint64_t maxAge =
        o.maxAgeDays > std::numeric_limits<std::uint64_t>::max() / 86400
            ? std::numeric_limits<std::uint64_t>::max()
            : o.maxAgeDays * 86400ull;
    CacheGcResult r = cache.gc(maxAge, o.maxBytes, cacheClockNow());
    std::cout << "scanned " << r.scanned << " entries; removed "
              << r.removedAge << " by age, " << r.removedSize
              << " by size, " << r.removedInvalid << " invalid; freed "
              << r.bytesFreed << " bytes (" << r.bytesRemaining
              << " remain)\n";
    return 0;
}

/** Read an entire file into a string, or throw. */
std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Counter value from a metrics document, 0 when absent. */
std::uint64_t
metricsCounter(const JsonValue &doc, const std::string &name)
{
    const JsonValue *counters = doc.find("counters");
    if (counters == nullptr || !counters->isObject())
        return 0;
    const JsonValue *v = counters->find(name);
    return v != nullptr && v->isNumber() && v->fitsUint64()
               ? v->asUint64()
               : 0;
}

/**
 * Validate + summarize a wavedyn-metrics-v1 document: structure,
 * per-histogram count == bucket sum, and the campaign invariant
 * cache.hits + cache.misses == scheduler.runs (every scheduled run is
 * exactly one probe outcome; only checked when a cache was in play).
 */
int
traceMetricsDoc(const std::string &path, const JsonValue &doc,
                bool summarize)
{
    std::vector<std::string> problems;
    if (doc.at("schema").asString() != "wavedyn-metrics-v1")
        problems.push_back("unknown schema '" +
                           doc.at("schema").asString() + "'");
    for (const char *key : {"counters", "gauges", "histograms"}) {
        const JsonValue *v = doc.find(key);
        if (v == nullptr || !v->isObject())
            problems.push_back(std::string(key) +
                               " member missing or not an object");
    }
    if (problems.empty()) {
        for (const auto &m : doc.at("histograms").members()) {
            const JsonValue *count = m.second.find("count");
            const JsonValue *buckets = m.second.find("buckets");
            if (count == nullptr || buckets == nullptr ||
                !buckets->isArray()) {
                problems.push_back("histogram '" + m.first +
                                   "' is malformed");
                continue;
            }
            if (buckets->size() != HistogramLayout::kBuckets) {
                problems.push_back(
                    "histogram '" + m.first + "' has " +
                    std::to_string(buckets->size()) + " buckets, want " +
                    std::to_string(HistogramLayout::kBuckets));
                continue;
            }
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < buckets->size(); ++i)
                sum += buckets->at(i).asUint64();
            if (sum != count->asUint64())
                problems.push_back(
                    "histogram '" + m.first + "': count " +
                    std::to_string(count->asUint64()) +
                    " != bucket sum " + std::to_string(sum));
        }
        std::uint64_t hits = metricsCounter(doc, "cache.hits");
        std::uint64_t misses = metricsCounter(doc, "cache.misses");
        std::uint64_t runs = metricsCounter(doc, "scheduler.runs");
        if (hits + misses > 0 && hits + misses != runs)
            problems.push_back(
                "cache.hits + cache.misses = " +
                std::to_string(hits + misses) +
                " but scheduler.runs = " + std::to_string(runs));
    }
    for (const std::string &p : problems)
        std::cout << "invalid: " << p << "\n";
    if (!problems.empty())
        return 1;

    std::cout << "metrics " << path << ": "
              << doc.at("counters").size() << " counters, "
              << doc.at("gauges").size() << " gauges, "
              << doc.at("histograms").size()
              << " histograms; invariants OK\n";
    if (summarize) {
        for (const auto &m : doc.at("counters").members())
            std::cout << "  counter   " << m.first << " = "
                      << m.second.asUint64() << "\n";
        for (const auto &m : doc.at("gauges").members())
            std::cout << "  gauge     " << m.first << " = "
                      << fmt(m.second.asDouble(), 4) << "\n";
        for (const auto &m : doc.at("histograms").members()) {
            std::uint64_t count = m.second.at("count").asUint64();
            std::uint64_t sum = m.second.at("sum_us").asUint64();
            std::cout << "  histogram " << m.first << ": " << count
                      << " obs, " << fmt(sum / 1e6, 3) << " s total";
            if (count > 0)
                std::cout << ", "
                          << fmt(static_cast<double>(sum) /
                                     static_cast<double>(count),
                                 1)
                          << " us mean";
            std::cout << "\n";
        }
    }
    return 0;
}

/** Validate + summarize a Chrome trace-event document. */
int
traceTraceDoc(const std::string &path, const JsonValue &doc,
              bool summarize)
{
    std::vector<std::string> problems = validateTraceDoc(doc);
    for (const std::string &p : problems)
        std::cout << "invalid: " << p << "\n";
    if (!problems.empty())
        return 1;

    // validateTraceDoc established the shape, so at() is safe here.
    const JsonValue &events = doc.at("traceEvents");
    std::size_t spans = 0;
    std::size_t instants = 0;
    std::map<std::uint64_t, std::size_t> perPid;
    std::map<std::string, std::uint64_t> durByName;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        std::string ph = e.at("ph").asString();
        if (ph == "M")
            continue;
        ++perPid[e.at("pid").asUint64()];
        if (ph == "X") {
            ++spans;
            durByName[e.at("name").asString()] +=
                e.at("dur").asUint64();
        } else {
            ++instants;
        }
    }
    std::cout << "trace " << path << ": " << spans << " spans, "
              << instants << " instants, " << perPid.size()
              << " process(es); nesting OK\n";
    if (summarize) {
        std::vector<std::pair<std::string, std::uint64_t>> rows(
            durByName.begin(), durByName.end());
        std::sort(rows.begin(), rows.end(),
                  [](const std::pair<std::string, std::uint64_t> &a,
                     const std::pair<std::string, std::uint64_t> &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first;
                  });
        std::size_t shown = std::min<std::size_t>(rows.size(), 10);
        for (std::size_t i = 0; i < shown; ++i)
            std::cout << "  " << rows[i].first << ": "
                      << fmt(rows[i].second / 1e6, 3) << " s total\n";
        if (rows.size() > shown)
            std::cout << "  (" << (rows.size() - shown)
                      << " more span names)\n";
    }
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-')
        return usage();
    std::string path = argv[2];
    Options o = parseOptions(argc, argv, 3, {"--summarize"});

    JsonValue doc;
    try {
        doc = parseJson(slurpFile(path));
    } catch (const std::exception &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
    // Dispatch on the document's own markers, so one subcommand
    // handles both side files a traced campaign writes.
    if (doc.isObject() && doc.find("schema") != nullptr)
        return traceMetricsDoc(path, doc, o.summarize);
    if (doc.isObject() && doc.find("traceEvents") != nullptr)
        return traceTraceDoc(path, doc, o.summarize);
    std::cerr << "error: " << path << " is neither a trace document "
                 "(traceEvents) nor a metrics document (schema)\n";
    return 1;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    auto model = loadPredictorFile(argv[2]);
    const auto &o = model.options();
    std::cout << "wavedyn predictor\n"
              << "  trace length:  " << model.traceLength() << "\n"
              << "  coefficients:  "
              << model.selectedCoefficients().size() << " ("
              << (o.selection == SelectionScheme::Magnitude
                      ? "magnitude"
                      : "order")
              << "-selected)\n"
              << "  model family:  "
              << (o.model == CoefficientModel::Rbf
                      ? "rbf-network"
                      : o.model == CoefficientModel::Linear
                            ? "linear"
                            : "global-mean")
              << "\n"
              << "  wavelet:       "
              << (o.paperHaar ? "haar (paper convention)"
                              : motherWaveletName(o.mother))
              << "\n"
              << "  train range:   [" << model.trainingRange().first
              << ", " << model.trainingRange().second << "]\n"
              << "  design space:  " << model.designSpace().dimensions()
              << " parameters, "
              << model.designSpace().trainSpaceSize()
              << " train configs\n";
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    try {
        if (cmd == "run")
            return cmdRun(argc, argv);
        if (cmd == "suite")
            return cmdSuite(argc, argv, 2);
        if (cmd == "explore")
            return cmdExplore(argc, argv);
        if (cmd == "train")
            return cmdTrain(argc, argv);
        if (cmd == "evaluate")
            return cmdEvaluate(argc, argv);
        if (cmd == "predict")
            return cmdPredict(argc, argv);
        if (cmd == "generate")
            return cmdGenerate(argc, argv);
        if (cmd == "diff")
            return cmdDiff(argc, argv);
        if (cmd == "cache")
            return cmdCache(argc, argv);
        if (cmd == "trace")
            return cmdTrace(argc, argv);
        if (cmd == "info")
            return cmdInfo(argc, argv);
        // Bare generation flags ("wavedyn_cli --generate 8 --family
        // mixed ...") run the suite campaign directly. Only --generate
        // triggers this: any other bare flag (--help, a forgotten
        // subcommand before --scale/--jobs) gets usage, not a
        // surprise campaign.
        if (cmd.rfind("--", 0) == 0) {
            // Flags sit at odd indices ("--name value" pairs from
            // argv[1]); only a --generate in a flag position counts,
            // so a malformed line that merely contains the string in
            // a value slot still gets usage. (--dump-spec shifts the
            // pairing, but dumping a spec implies typing a subcommand
            // is no hardship — the shortcut stays pair-based.)
            for (int i = 1; i < argc; i += 2)
                if (std::strcmp(argv[i], "--generate") == 0)
                    return cmdSuite(argc, argv, 1);
            return usage();
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
