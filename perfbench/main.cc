/**
 * @file
 * wavedyn campaign benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scenario-seed N] [--experiment-seed N]
 *             [--work-dir DIR] [--commit ID]
 *
 * --trace 0 drives whole campaigns through runCampaign for S seconds
 * and prints the end-to-end metrics; --trace 1 alternates an untraced
 * campaign with a traced replay (replay.hh) for S seconds and prints
 * the per-layer metrics. Either way the last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}; the line before
 * it records the run's metadata. See README.md for every metric.
 *
 * For explore-warm the program starts itself once more with
 * --fill-cache DIR, to fill the workload's cache with a cold run in a
 * process of its own (fillWarmCache).
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/store.hh"
#include "campaign/campaign.hh"
#include "campaign/report.hh"
#include "core/experiment.hh"
#include "core/scenario.hh"
#include "replay.hh"
#include "sim/batch.hh"
#include "spans.hh"
#include "util/json.hh"
#include "util/options.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace wavedyn;

namespace perfbench
{
namespace
{

/** Pinned execution settings: never taken from the environment. */
constexpr std::size_t kMaxJobs = 4;
constexpr unsigned kBatchWidth = 16;
/**
 * Setup takes milliseconds, so single samples swing with the host. It
 * is sampled this many more times after every campaign, so that its
 * median spans the whole run rather than one moment of it, and over at
 * least kSetupSamples in all.
 */
constexpr std::size_t kSetupsPerCampaign = 10;
constexpr std::size_t kSetupSamples = 50;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"campaign_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_minstr_per_s", "Minstr/s"},
    {"sweep_mpoints_per_s", "Mpoints/s"},
    {"cpi_mse_pct", "%"},
    {"power_mse_pct", "%"},
    {"avf_mse_pct", "%"},
    {"heldout_cpi_err_pct", "%"},
    {"heldout_energy_err_pct", "%"},
    {"heldout_avf_err_pct", "%"},
    {"refine_err_pct", "%"},
    {"ok_ratio", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"workload.decode_minstr_per_s", "Minstr/s"},
    {"sim.batch_s", "s"},
    {"sim.batch_kinstr_per_s", "kinstr/s"},
    {"sim.scalar_s", "s"},
    {"sim.scalar_kinstr_per_s", "kinstr/s"},
    {"sim.lanes_per_call", "lanes"},
    {"sim.instructions", "count"},
    {"sim.cycles", "count"},
    {"exec.run_s", "s"},
    {"exec.busy_ratio", "ratio"},
    {"exec.runs", "count"},
    {"exec.computed", "count"},
    {"cache.load_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.codec_us", "us"},
    {"cache.store_us", "us"},
    {"cache.stores", "count"},
    {"core.plan_s", "s"},
    {"core.assemble_s", "s"},
    {"core.train_s", "s"},
    {"core.retrain_s", "s"},
    {"core.predict_s", "s"},
    {"core.predict_points_per_s", "points/s"},
    {"wavelet.forward_s", "s"},
    {"wavelet.select_s", "s"},
    {"wavelet.inverse_s", "s"},
    {"mlmodel.rbf_fit_s", "s"},
    {"mlmodel.tree_fit_s", "s"},
    {"mlmodel.rbf_units", "units"},
    {"mlmodel.predict_many_rows_per_s", "rows/s"},
    {"dse.objective_s", "s"},
    {"dse.pareto_s", "s"},
    {"dse.merge_s", "s"},
    {"dse.front_size", "count"},
    {"dse.sweep_points", "count"},
    {"trace_overhead_pct", "%"},
    {"share.sim_pct", "%"},
    {"share.exec_pct", "%"},
    {"share.cache_pct", "%"},
    {"share.core_pct", "%"},
    {"share.dse_pct", "%"},
};

/**
 * Reported for an end-to-end metric on a workload it does not apply to
 * (e.g. sweep throughput of the suite, which never sweeps), so that
 * every metric is present on every workload and never reads 0.
 */
constexpr double kNotApplicable = 1.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::uint64_t scenarioSeed = kScenarioSeed;
    std::uint64_t experimentSeed = kExperimentSeed;
    std::string workDir = ".bench_build";
    std::string commit = "unknown";
    std::string self;      //!< this program, to start the cache filler
    std::string fillCache; //!< set in the cache-filling child only
};

std::uint64_t
parseUint(const std::string &text, const std::string &flag)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used, 0);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        throw std::invalid_argument(flag + ": expected an unsigned integer, "
                                           "got '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    o.self = argv[0];
    bool haveWorkload = false;
    for (int i = 1; i < argc; i += 2) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(key + ": missing value");
        std::string val = argv[i + 1];
        if (key == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            o.seed = parseUint(val, key);
        } else if (key == "--seconds") {
            o.seconds = parseUint(val, key);
        } else if (key == "--trace") {
            std::uint64_t t = parseUint(val, key);
            if (t > 1)
                throw std::invalid_argument("--trace: expected 0 or 1");
            o.trace = t == 1;
        } else if (key == "--scenario-seed") {
            o.scenarioSeed = parseUint(val, key);
        } else if (key == "--experiment-seed") {
            o.experimentSeed = parseUint(val, key);
        } else if (key == "--work-dir") {
            o.workDir = val;
        } else if (key == "--commit") {
            o.commit = val;
        } else if (key == "--fill-cache") {
            o.fillCache = val;
        } else {
            throw std::invalid_argument("unknown flag '" + key + "'");
        }
    }
    if (!haveWorkload)
        throw std::invalid_argument("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    if (o.seconds == 0)
        throw std::invalid_argument("--seconds must be at least 1");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
seconds(std::int64_t fromNs)
{
    return static_cast<double>(nowNs() - fromNs) * 1e-9;
}

/** A private directory under the work dir, removed with everything in it. */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent)
    {
        fs::create_directories(parent);
        std::string pattern =
            (fs::path(parent) / "perfbench-tmp-XXXXXX").string();
        std::vector<char> buf(pattern.begin(), pattern.end());
        buf.push_back('\0');
        if (!mkdtemp(buf.data()))
            throw std::runtime_error("cannot create a directory under " +
                                     parent);
        dir = buf.data();
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

/** One timed campaign. */
struct Sample
{
    double setupS = 0.0;
    double campaignS = 0.0;
    std::uint64_t computedRuns = 0;
};

/** Runs one workload's campaigns and keeps its correctness record. */
class Harness
{
  public:
    Harness(const Workload &w, std::string root)
        : w(w), root(std::move(root))
    {
    }

    /** The cache a campaign of this workload runs against. */
    std::shared_ptr<ResultCache>
    openCache()
    {
        std::string dir;
        switch (w.cache) {
          case CacheMode::None:
            return nullptr;
          case CacheMode::Warm:
            dir = root + "/warm";
            break;
          case CacheMode::Fresh:
            dir = root + "/fresh-" + std::to_string(freshDirs++);
            break;
        }
        auto cache = std::make_shared<ResultCache>(dir);
        cache->setMemoryCapacity(0); // every lookup reads the disk entry
        return cache;
    }

    /**
     * What runCampaign does before its first simulation, on its own:
     * validate the spec, materialise the scenarios, plan every
     * scenario's design points, and open the cache.
     */
    double
    setup(std::shared_ptr<ResultCache> &cache)
    {
        std::int64_t t0 = nowNs();
        CampaignSpec spec = w.spec;
        validateCampaign(spec);
        ScenarioSet set = ScenarioSet::paperCopy();
        const std::vector<std::string> names = spec.scenarios.scenarioNames();
        for (const std::string &n : names)
            set.resolve(n);
        ExperimentSpec e = spec.experiment;
        e.scenarios = &set;
        for (const std::string &n : names) {
            e.benchmark = n;
            planExperiment(e);
        }
        cache = openCache();
        setActiveResultCache(cache);
        return seconds(t0);
    }

    /** Drop a fresh cache directory once its campaign is done. */
    void
    release(const std::shared_ptr<ResultCache> &cache)
    {
        setActiveResultCache(nullptr);
        if (cache && w.cache == CacheMode::Fresh) {
            std::error_code ec;
            fs::remove_all(cache->root(), ec);
        }
    }

    /**
     * Set up and run one campaign. The first campaign's report is the
     * reference every later report must equal byte for byte.
     */
    bool
    runOnce(Sample &sample)
    {
        ++attempted;
        std::shared_ptr<ResultCache> cache;
        try {
            sample.setupS = setup(cache);
            std::atomic<std::uint64_t> resolved{0}, hits{0}, storeFailures{0};
            CampaignHooks hooks;
            hooks.runProgress = [&](std::size_t, std::size_t) {
                resolved.fetch_add(1, std::memory_order_relaxed);
            };
            hooks.runCacheHit = [&](const std::string &) {
                hits.fetch_add(1, std::memory_order_relaxed);
            };
            hooks.runCacheStoreFailed = [&](const std::string &) {
                storeFailures.fetch_add(1, std::memory_order_relaxed);
            };
            std::int64_t t0 = nowNs();
            CampaignResult result = runCampaign(w.spec, hooks);
            sample.campaignS = seconds(t0);
            sample.computedRuns = resolved.load() - hits.load();
            release(cache);

            std::string report = writeJson(campaignResultToJson(result));
            bool ok = storeFailures.load() == 0;
            if (!ok)
                std::cerr << "perfbench: " << storeFailures.load()
                          << " result cache stores failed\n";
            if (referenceReport.empty()) {
                referenceReport = std::move(report);
            } else if (report != referenceReport) {
                std::cerr << "perfbench: report differs from the "
                             "workload's first run\n";
                ok = false;
            }
            if (!haveReference) {
                reference = std::move(result);
                haveReference = true;
            }
            failed += ok ? 0 : 1;
            return ok;
        } catch (const std::exception &e) {
            release(cache);
            std::cerr << "perfbench: campaign failed: " << e.what() << "\n";
            ++failed;
            return false;
        }
    }

    const Workload &w;
    std::string root;
    std::size_t freshDirs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    CampaignResult reference;
    bool haveReference = false;
    /** The first report: a cold run's for explore-warm (fillWarmCache). */
    std::string referenceReport;
};

/** Where the cache-filling child leaves its cold run's report. */
std::string
coldReportPath(const std::string &root)
{
    return root + "/cold-report.json";
}

/**
 * The explore-warm cache, filled by a cold campaign in a child process
 * so that the cold run's memory stays out of this process's peak RSS.
 * Returns the cold run's report.
 */
std::string
fillWarmCache(const Options &o, const std::string &root)
{
    std::vector<std::string> args = {
        o.self, "--workload", o.workload, "--seed", std::to_string(o.seed),
        "--seconds", "1", "--trace", "0",
        "--scenario-seed", std::to_string(o.scenarioSeed),
        "--experiment-seed", std::to_string(o.experimentSeed),
        "--fill-cache", root};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, o.self.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0)
        throw std::runtime_error("cannot start " + o.self);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            throw std::runtime_error("lost the cache-filling process");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("filling the explore-warm cache failed");
    std::ifstream in(coldReportPath(root));
    std::stringstream report;
    report << in.rdbuf();
    if (!in || report.str().empty())
        throw std::runtime_error("no cold report from the cache filler");
    return report.str();
}

/** Objective index in an explore report, or -1. */
int
objectiveIndex(const ExploreReport &r, Objective o)
{
    auto it = std::find(r.objectives.begin(), r.objectives.end(), o);
    return it == r.objectives.end()
        ? -1
        : static_cast<int>(it - r.objectives.begin());
}

std::map<std::string, double>
endToEndMetrics(const Harness &h, const std::vector<Sample> &samples,
                const std::vector<double> &setupTimes)
{
    const CampaignSpec &spec = h.w.spec;
    const CampaignResult &ref = h.reference;
    std::map<std::string, double> m;
    for (const MetricDef &d : kEndToEnd)
        m[d.name] = kNotApplicable;

    std::vector<double> campaign, simRate, sweepRate;
    const std::uint64_t body = static_cast<std::uint64_t>(
        spec.experiment.samples * spec.experiment.intervalInstrs);
    const double instrPerRun = static_cast<double>(body + body / 8);
    bool computesRuns = !samples.empty();
    for (const Sample &s : samples) {
        campaign.push_back(s.campaignS);
        computesRuns = computesRuns && s.computedRuns > 0;
        simRate.push_back(static_cast<double>(s.computedRuns) * instrPerRun /
                          s.campaignS / 1e6);
        if (spec.kind == CampaignKind::Explore)
            // Every round sweeps once; the final sweep either follows
            // the last round or is the one that found nothing left.
            sweepRate.push_back(
                static_cast<double>(ref.explore.sweepPoints *
                                    ref.explore.rounds.size()) /
                s.campaignS / 1e6);
    }
    m["campaign_s"] = median(campaign);
    m["setup_s"] = median(setupTimes);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (computesRuns)
        m["sim_minstr_per_s"] = median(simRate);

    if (spec.kind == CampaignKind::Suite) {
        m["cpi_mse_pct"] = ref.suite.overallMedian(Domain::Cpi);
        m["power_mse_pct"] = ref.suite.overallMedian(Domain::Power);
        m["avf_mse_pct"] = ref.suite.overallMedian(Domain::Avf);
    } else if (spec.kind == CampaignKind::Explore) {
        const ExploreReport &r = ref.explore;
        m["sweep_mpoints_per_s"] = median(sweepRate);
        const std::pair<const char *, Objective> heldout[] = {
            {"heldout_cpi_err_pct", Objective::Cpi},
            {"heldout_energy_err_pct", Objective::Energy},
            {"heldout_avf_err_pct", Objective::Avf}};
        for (const auto &[name, o] : heldout) {
            int k = objectiveIndex(r, o);
            if (k >= 0 && !r.rounds.empty())
                m[name] = r.rounds[0].meanAbsErrPct[k];
        }
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 1; i < r.rounds.size(); ++i)
            for (double e : r.rounds[i].meanAbsErrPct) {
                sum += e;
                ++n;
            }
        if (n > 0)
            m["refine_err_pct"] = sum / static_cast<double>(n);
    }
    m["ok_ratio"] = static_cast<double>(h.attempted - h.failed) /
                    static_cast<double>(h.attempted);
    return m;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::map<std::string, double> &values,
            const MetricDef *defs, std::size_t count)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < count; ++i) {
        auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        os << (i ? ", " : "") << "\"" << defs[i].name
           << "\": {\"value\": " << number(v) << ", \"unit\": \""
           << defs[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
run(const Options &o)
{
    // The benchmark pins its own execution settings; none of the
    // library's environment knobs may leak into a measurement.
    for (const char *var : {"WAVEDYN_CACHE_DIR", "WAVEDYN_BATCH_WIDTH",
                            "WAVEDYN_JOBS", "WAVEDYN_TRACE", "WAVEDYN_SCALE"})
        unsetenv(var);
    const std::size_t nproc =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t jobs = std::min(kMaxJobs, nproc);
    setJobs(jobs);
    setGlobalBatchWidth(kBatchWidth);
    setActiveResultCache(nullptr);

    const Workload w = makeWorkload(o.workload, o.scenarioSeed,
                                    o.experimentSeed, o.seed);
    if (!o.fillCache.empty()) {
        Harness filler(w, o.fillCache);
        Sample cold;
        if (w.cache != CacheMode::Warm || !filler.runOnce(cold))
            return 1;
        std::ofstream out(coldReportPath(o.fillCache));
        out << filler.referenceReport;
        return out ? 0 : 1;
    }
    TempDir tmp(o.workDir);
    Harness h(w, tmp.path());

    std::ostringstream meta;
    meta << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
         << ", \"scenario_seed\": " << o.scenarioSeed
         << ", \"experiment_seed\": " << o.experimentSeed
         << ", \"second_scenario_seed\": " << kSecondScenarioSeed
         << ", \"second_experiment_seed\": " << kSecondExperimentSeed
         << ", \"commit\": \"" << o.commit << "\", \"compiler\": \""
         << PERFBENCH_COMPILER << "\", \"build_type\": \""
         << PERFBENCH_BUILD_TYPE << "\", \"nproc\": " << nproc
         << ", \"jobs\": " << jobs << ", \"batch_width\": " << kBatchWidth
         << ", \"seconds\": " << o.seconds
         << ", \"trace\": " << (o.trace ? 1 : 0) << "}";
    std::cout << "perfbench-meta " << meta.str() << std::endl;

    // Untimed: the reference campaign. For explore-warm the cache is
    // filled first and the reference report is the cold run's, so every
    // warm report, this one included, is checked against a cold one.
    if (w.cache == CacheMode::Warm)
        h.referenceReport = fillWarmCache(o, h.root);
    Sample first;
    h.runOnce(first);

    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(o.seconds) * 1000000000;
    if (!o.trace) {
        std::vector<Sample> samples;
        std::vector<double> setupTimes;
        auto sampleSetup = [&h, &setupTimes] {
            std::shared_ptr<ResultCache> cache;
            setupTimes.push_back(h.setup(cache));
            h.release(cache);
        };
        do {
            Sample s;
            if (h.runOnce(s)) {
                samples.push_back(s);
                setupTimes.push_back(s.setupS);
            }
            for (std::size_t i = 0; i < kSetupsPerCampaign; ++i)
                sampleSetup();
        } while (nowNs() < deadline);
        while (setupTimes.size() < kSetupSamples)
            sampleSetup();
        std::cerr << "perfbench: " << samples.size() << " timed campaigns:";
        for (const Sample &s : samples)
            std::cerr << " " << number(s.campaignS);
        std::cerr << "\n";
        printResult(h.failed == 0 && !samples.empty(), h.attempted,
                    h.failed, endToEndMetrics(h, samples, setupTimes),
                    kEndToEnd, std::size(kEndToEnd));
        return 0;
    }

    ReplayContext ctx;
    ctx.workload = &w;
    ctx.openCache = [&h] { return h.openCache(); };
    ctx.reference = &h.reference;
    ctx.jobs = jobs;
    ctx.batchWidth = kBatchWidth;
    std::map<std::string, std::vector<double>> series;
    bool replayed = false;
    do {
        Sample s;
        if (!h.runOnce(s))
            continue;
        ReplayOutcome out = tracedReplay(ctx);
        h.attempted += out.checks;
        h.failed += out.failures;
        for (const auto &[name, v] : out.metrics)
            series[name].push_back(v);
        series["trace_overhead_pct"].push_back(
            100.0 * (out.pathSeconds - s.campaignS) / s.campaignS);
        replayed = true;
    } while (nowNs() < deadline);

    std::map<std::string, double> metrics;
    for (const auto &[name, values] : series)
        metrics[name] = median(values);
    printResult(h.failed == 0 && replayed, h.attempted, h.failed, metrics,
                kPerLayer, std::size(kPerLayer));
    return 0;
}

} // anonymous namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::cerr << "perfbench: refusing to record from an assert-enabled "
                 "build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "perfbench: refusing to record from a '"
                  << PERFBENCH_BUILD_TYPE << "' build (need Release)\n";
        return 2;
    }
    try {
        return perfbench::run(perfbench::parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
