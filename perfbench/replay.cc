#include "replay.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <set>
#include <utility>
#include <vector>

#include "cache/store.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/predictor.hh"
#include "core/scenario.hh"
#include "dse/objectives.hh"
#include "dse/pareto.hh"
#include "exec/scheduler.hh"
#include "exec/thread_pool.hh"
#include "linalg/matrix.hh"
#include "mlmodel/rbf_network.hh"
#include "mlmodel/regression_tree.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "wavelet/dwt.hh"
#include "wavelet/haar.hh"
#include "wavelet/selection.hh"
#include "workload/stream.hh"

namespace perfbench
{

namespace
{

using namespace wavedyn;

using Traces = std::vector<std::vector<double>>;
using Bank = std::vector<std::map<Domain, WaveletNeuralPredictor>>;
using Scores = std::vector<std::vector<std::vector<double>>>;

/** Bit-level digest of a run's per-interval record. */
std::uint64_t
digest(const SimResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    auto bits = [](double d) {
        std::uint64_t u = 0;
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    mix(r.totalCycles);
    mix(r.totalInstructions);
    for (const IntervalSample &s : r.intervals) {
        mix(s.cycles);
        mix(s.instructions);
        mix(bits(s.cpi));
        mix(bits(s.power));
        mix(bits(s.avf));
    }
    return h;
}

/** Growth of one scheduler histogram between two registry snapshots. */
struct Growth
{
    std::uint64_t count = 0;
    std::int64_t ns = 0;
};

Growth
growth(const MetricsSnapshot &before, const MetricsSnapshot &after,
       const std::string &name)
{
    auto find = [&name](const MetricsSnapshot &snap) {
        for (const MetricsSnapshot::Histogram &h : snap.histograms)
            if (h.name == name)
                return h;
        return MetricsSnapshot::Histogram{};
    };
    const MetricsSnapshot::Histogram a = find(before);
    const MetricsSnapshot::Histogram b = find(after);
    Growth g;
    g.count = b.count - a.count;
    g.ns = static_cast<std::int64_t>(b.sumUs - a.sumUs) * 1000;
    return g;
}

/**
 * Lanes of each simulation call one RunScheduler::run made, read from
 * the "run" spans it records per computed task. The scheduler stamps
 * the lanes of a chunk back to back on the worker that ran it, each an
 * equal share of the chunk's time, so a chunk is a series of
 * consecutive spans on one thread with equal durations, each starting
 * where the last ended. Events come ordered by thread, then record
 * order.
 */
std::vector<std::size_t>
chunkLanes(const std::vector<TraceEvent> &events)
{
    std::vector<std::size_t> lanes;
    const TraceEvent *prev = nullptr;
    for (const TraceEvent &e : events) {
        if (e.ph != 'X' || e.name != "run")
            continue;
        if (prev && prev->tid == e.tid && prev->dur == e.dur &&
            prev->ts + prev->dur == e.ts)
            ++lanes.back();
        else
            lanes.push_back(1);
        prev = &e;
    }
    return lanes;
}

/** Append the runs of @p points on @p bench, as scheduleExperiment does. */
void
appendRuns(std::vector<RunTask> &tasks, const BenchmarkProfile &bench,
           const DesignSpace &space, const std::vector<DesignPoint> &points,
           const ExperimentSpec &spec)
{
    for (const DesignPoint &p : points) {
        RunTask task;
        task.benchmark = &bench;
        task.config = SimConfig::fromDesignPoint(space, p);
        task.samples = spec.samples;
        task.intervalInstrs = spec.intervalInstrs;
        task.dvm = spec.dvm;
        tasks.push_back(std::move(task));
    }
}

/** The explorer's per-point aggregation (dse/explorer.cc). */
std::vector<FrontPoint>
aggregate(const std::vector<Objective> &objectives,
          std::vector<DesignPoint> points, const Scores &val)
{
    std::size_t scen = val.size();
    std::vector<FrontPoint> out;
    out.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        FrontPoint fp;
        fp.point = std::move(points[i]);
        double disagree = 0.0;
        for (std::size_t k = 0; k < objectives.size(); ++k) {
            double sum = 0.0;
            double lo = val[0][k][i];
            double hi = lo;
            for (std::size_t s = 0; s < scen; ++s) {
                double v = val[s][k][i];
                sum += v;
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            double mean = sum / static_cast<double>(scen);
            fp.scores.push_back(mean);
            fp.values.push_back(maximised(objectives[k]) ? -mean : mean);
            disagree += (hi - lo) / (std::fabs(mean) + 1e-12);
        }
        fp.uncertainty = disagree / static_cast<double>(objectives.size());
        out.push_back(std::move(fp));
    }
    return out;
}

/** The explorer's distance-to-training uncertainty term. */
void
addDistanceUncertainty(std::vector<FrontPoint> &front,
                       const DesignSpace &space,
                       const std::vector<DesignPoint> &trainPoints)
{
    std::vector<std::vector<double>> trainNorm;
    for (const DesignPoint &t : trainPoints)
        trainNorm.push_back(space.normalize(t));
    for (FrontPoint &fp : front) {
        std::vector<double> norm = space.normalize(fp.point);
        double best = -1.0;
        for (const auto &t : trainNorm) {
            double acc = 0.0;
            for (std::size_t d = 0; d < norm.size(); ++d) {
                double z = norm[d] - t[d];
                acc += z * z;
            }
            if (best < 0.0 || acc < best)
                best = acc;
        }
        fp.uncertainty += best > 0.0 ? std::sqrt(best) : 0.0;
    }
}

/** The explorer's refinement pick: most uncertain unsimulated points. */
std::vector<FrontPoint>
selectForRefinement(const std::vector<FrontPoint> &front,
                    const std::set<DesignPoint> &simulated, std::size_t k)
{
    std::vector<FrontPoint> candidates;
    for (const FrontPoint &fp : front)
        if (!simulated.count(fp.point))
            candidates.push_back(fp);
    std::sort(candidates.begin(), candidates.end(),
              [](const FrontPoint &a, const FrontPoint &b) {
                  if (a.uncertainty != b.uncertainty)
                      return a.uncertainty > b.uncertainty;
                  return canonicalLess(a, b);
              });
    if (candidates.size() > k)
        candidates.resize(k);
    return candidates;
}

/** One predictor fit, for the training probe. */
struct TrainCell
{
    const WaveletNeuralPredictor *pred = nullptr;
    const std::vector<DesignPoint> *points = nullptr;
    const Traces *traces = nullptr;
    bool frozenSelection = false; //!< warm-start retrain
};

class Replay
{
  public:
    explicit Replay(const ReplayContext &ctx)
        : ctx(ctx), spec(ctx.workload->spec),
          set(ScenarioSet::paperCopy())
    {
        log.setJobs(ctx.jobs);
        const std::uint64_t body = static_cast<std::uint64_t>(
            spec.experiment.samples * spec.experiment.intervalInstrs);
        instrPerRun = body + body / 8; // warm-up + sampled body
    }

    ReplayOutcome run();

  private:
    using Scope = SpanLog::Scope;

    Scope
    span(const std::string &name, Layer layer, int crossParent = -1,
         bool probe = false)
    {
        return Scope(log, log.open(name, layer, crossParent, probe));
    }

    void check(bool ok, const std::string &what);

    int replaySuite();
    int replayExplore();

    /** Points per sweep work item, as the explorer chunks its sweep. */
    std::size_t sweepChunk() const { return spec.chunk ? spec.chunk : 1024; }

    std::vector<SimResult> runBatch(const std::vector<RunTask> &tasks);
    Traces predict(const WaveletNeuralPredictor &pred,
                   const std::vector<DesignPoint> &points);
    Scores scores(const Bank &bank, const std::vector<Domain> &domains,
                  const std::vector<DesignPoint> &points);
    std::vector<FrontPoint> sweep(const Bank &bank,
                                  const std::vector<Domain> &domains,
                                  const DesignSpace &space,
                                  std::size_t stride, std::size_t points);
    void trainBank(Bank &bank, const DesignSpace &space,
                   const std::vector<DesignPoint> &trainPoints,
                   const std::vector<std::map<Domain, Traces>> &traces,
                   bool warm, const std::vector<DesignPoint> &rows);
    void afterTraining(const std::vector<TrainCell> &cells,
                       const std::vector<DesignPoint> &rows);

    void probePredict(const std::vector<TrainCell> &cells,
                      const std::vector<DesignPoint> &rows);
    void probeCodec(const std::vector<SimResult> &results);
    void probeScalar();
    void probeDecode();

    const ReplayContext &ctx;
    const CampaignSpec &spec;
    ScenarioSet set; //!< profiles every recorded task points into
    SpanLog log;
    std::shared_ptr<ResultCache> cache;
    std::uint64_t instrPerRun = 0;

    std::size_t checks = 0;
    std::size_t failures = 0;

    /** Every RunScheduler batch of the path, for the probes. */
    struct Batch
    {
        std::vector<RunTask> tasks;
        std::vector<std::uint64_t> digests;
        std::vector<char> computed;
    };
    std::vector<Batch> batches;

    std::atomic<std::uint64_t> predictPoints{0};
    std::atomic<std::uint64_t> predictRows{0};
    std::atomic<std::uint64_t> storesOk{0};
    std::atomic<std::uint64_t> storesFailed{0};
    std::uint64_t loads = 0;
    std::uint64_t hits = 0;
    std::uint64_t storeCount = 0;
    std::int64_t storeNs = 0;
    std::uint64_t simCalls = 0;
    std::uint64_t computedRuns = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t codecOps = 0;
    std::int64_t codecNs = 0;
    double unitsSum = 0.0;
    std::uint64_t unitsCount = 0;
    std::uint64_t sweptPoints = 0;
    std::uint64_t frontSize = 0;
    std::uint64_t execRuns = 0;
    std::uint64_t scalarRuns = 0;
    std::uint64_t decodeInstrs = 0;
};

void
Replay::check(bool ok, const std::string &what)
{
    ++checks;
    if (!ok) {
        ++failures;
        std::cerr << "perfbench: traced run check failed: " << what << "\n";
    }
}

std::vector<SimResult>
Replay::runBatch(const std::vector<RunTask> &tasks)
{
    RunScheduler sched(spec.experiment.seed);
    sched.setCache(cache);
    // Hit and miss events fire once per task, in task order, on this
    // thread: they say which tasks the scheduler computed.
    std::vector<char> computed;
    CacheRunEvents events;
    events.hit = [&computed](const std::string &) { computed.push_back(0); };
    events.miss = [&computed](const std::string &) { computed.push_back(1); };
    events.store = [this](const std::string &) {
        storesOk.fetch_add(1, std::memory_order_relaxed);
    };
    events.storeFailed = [this](const std::string &) {
        storesFailed.fetch_add(1, std::memory_order_relaxed);
    };
    sched.onCacheEvents(std::move(events));
    for (const RunTask &t : tasks)
        sched.enqueue(t);

    // The scheduler's own telemetry splits its wall time: the probe
    // phase (cache lookups, this thread), and per computed run the
    // simulate and store times its workers record.
    MetricsRegistry &reg = metricsRegistry();
    SpanTracer &tracer = spanTracer();
    const MetricsSnapshot before = reg.snapshot();
    tracer.clear();
    tracer.setEnabled(true);
    {
        Scope run = span("exec.run", Layer::Exec);
        sched.run();
        tracer.setEnabled(false);
        const MetricsSnapshot after = reg.snapshot();
        const Growth probe = growth(before, after, "cache.probe_us");
        const Growth sim = growth(before, after, "sim.run_us");
        const Growth store = growth(before, after, "cache.store_us");
        log.addTime(run.id(), "cache.lookup", Layer::Cache, probe.ns, false);
        log.addTime(run.id(), "sim.batch", Layer::Sim, sim.ns, true);
        log.addTime(run.id(), "cache.store", Layer::Cache, store.ns, true);
        storeNs += store.ns;
        storeCount += store.count;
    }
    if (!cache)
        computed.assign(tasks.size(), 1);
    check(computed.size() == tasks.size(), "one cache event per task");
    computed.resize(tasks.size(), 0);

    const std::vector<std::size_t> lanes = chunkLanes(tracer.events());
    tracer.clear();
    std::size_t lanesTotal = 0;
    std::size_t widest = 0;
    for (std::size_t n : lanes) {
        lanesTotal += n;
        widest = std::max(widest, n);
    }
    const std::size_t pending = static_cast<std::size_t>(
        std::count(computed.begin(), computed.end(), 1));
    check(lanesTotal == pending && widest <= ctx.batchWidth,
          "scheduler run spans: " + std::to_string(lanesTotal) +
              " lanes in " + std::to_string(lanes.size()) +
              " chunks for " + std::to_string(pending) + " computed runs");
    simCalls += lanes.size();
    computedRuns += pending;
    execRuns += tasks.size();
    if (cache) {
        loads += tasks.size();
        hits += tasks.size() - pending;
    }

    Scope bookkeeping = span("probe.digest", Layer::Core, -1, true);
    std::vector<SimResult> results;
    results.reserve(tasks.size());
    Batch batch;
    batch.tasks = tasks;
    batch.computed = computed;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        results.push_back(sched.takeResult(i));
        batch.digests.push_back(digest(results.back()));
        if (computed[i]) {
            instructions += results.back().totalInstructions;
            cycles += results.back().totalCycles;
        }
    }
    batches.push_back(std::move(batch));
    if (cache)
        probeCodec(results);
    return results;
}

void
Replay::probeCodec(const std::vector<SimResult> &results)
{
    Scope probe = span("probe.codec", Layer::Cache, -1, true);
    bool ok = true;
    for (const SimResult &r : results) {
        std::string bytes = encodeSimResult(r, cache->simVersion());
        std::int64_t t0 = nowNs();
        std::optional<SimResult> back =
            decodeSimResult(bytes, cache->simVersion());
        codecNs += nowNs() - t0;
        ++codecOps;
        ok = ok && back && encodeSimResult(*back, cache->simVersion()) == bytes;
    }
    check(ok, "result codec round trip");
}

Traces
Replay::predict(const WaveletNeuralPredictor &pred,
                const std::vector<DesignPoint> &points)
{
    Scope s = span("core.predict", Layer::Core);
    predictPoints.fetch_add(points.size(), std::memory_order_relaxed);
    return pred.predictTraces(points);
}

Scores
Replay::scores(const Bank &bank, const std::vector<Domain> &domains,
               const std::vector<DesignPoint> &points)
{
    const std::vector<Objective> &objectives = spec.objectives;
    Scores val(bank.size());
    for (std::size_t s = 0; s < bank.size(); ++s) {
        std::map<Domain, Traces> traces;
        for (Domain d : domains)
            traces[d] = predict(bank[s].at(d), points);
        Scope o = span("dse.objective", Layer::Dse);
        val[s].assign(objectives.size(),
                      std::vector<double>(points.size(), 0.0));
        std::map<Domain, std::vector<double>> one;
        for (Domain d : domains)
            one[d];
        for (std::size_t i = 0; i < points.size(); ++i) {
            for (Domain d : domains)
                one.at(d) = std::move(traces[d][i]);
            for (std::size_t k = 0; k < objectives.size(); ++k)
                val[s][k][i] = objectiveScore(objectives[k], one);
        }
    }
    return val;
}

std::vector<FrontPoint>
Replay::sweep(const Bank &bank, const std::vector<Domain> &domains,
              const DesignSpace &space, std::size_t stride,
              std::size_t points)
{
    const std::size_t chunk = sweepChunk();
    std::vector<std::vector<FrontPoint>> shards((points + chunk - 1) / chunk);
    {
        Scope section = span("exec.dispatch", Layer::Exec);
        const int sec = section.id();
        parallelChunks(
            ThreadPool::global(), points, chunk,
            [&](std::size_t c, std::size_t begin, std::size_t end) {
                Scope work = span("dse.sweep_chunk", Layer::Dse, sec);
                std::vector<DesignPoint> pts;
                pts.reserve(end - begin);
                for (std::size_t i = begin; i < end; ++i)
                    pts.push_back(space.pointFromFlatTrainIndex(i * stride));
                Scores val = scores(bank, domains, pts);
                std::vector<FrontPoint> fps =
                    aggregate(spec.objectives, std::move(pts), val);
                Scope pareto = span("dse.pareto", Layer::Dse);
                shards[c] = paretoFront(std::move(fps));
            });
    }
    sweptPoints += points;
    Scope merge = span("dse.merge", Layer::Dse);
    return mergeFronts(std::move(shards));
}

void
Replay::afterTraining(const std::vector<TrainCell> &cells,
                      const std::vector<DesignPoint> &rows)
{
    // Off the path, on each fit's own inputs: the wavelet and mlmodel
    // steps the fit went through, and the two steps predictTraces takes
    // on @p rows.
    for (const TrainCell &c : cells)
        for (const auto &m : c.pred->coefficientModels())
            if (const auto *rbf = dynamic_cast<const RbfNetwork *>(m.get())) {
                unitsSum += static_cast<double>(rbf->units().size());
                ++unitsCount;
            }
    probePredict(cells, rows);

    Scope section = span("probe.training", Layer::Core, -1, true);
    const int sec = section.id();
    parallelFor(ThreadPool::global(), cells.size(), [&](std::size_t i) {
        const TrainCell &c = cells[i];
        const PredictorOptions &opts = c.pred->options();
        const std::size_t length = c.traces->front().size();
        Traces coeffs;
        {
            Scope f = span("wavelet.forward", Layer::Wavelet, sec);
            for (const auto &t : *c.traces)
                coeffs.push_back(opts.paperHaar
                                     ? haarForward(t)
                                     : WaveletTransform(opts.mother)
                                           .forward(t));
        }
        std::vector<std::size_t> selected;
        if (c.frozenSelection) {
            selected = c.pred->selectedCoefficients();
        } else {
            Scope s = span("wavelet.select", Layer::Wavelet, sec);
            std::size_t k = std::min(opts.coefficients, length);
            selected = opts.selection == SelectionScheme::Magnitude
                ? selectByMeanMagnitude(coeffs, k)
                : selectByOrder(length, k);
        }
        const DesignSpace &space = c.pred->designSpace();
        Matrix x(c.points->size(), space.dimensions());
        for (std::size_t r = 0; r < c.points->size(); ++r) {
            std::vector<double> norm = space.normalize((*c.points)[r]);
            for (std::size_t d = 0; d < norm.size(); ++d)
                x.at(r, d) = norm[d];
        }
        std::vector<double> y(c.points->size());
        for (std::size_t slot : selected) {
            for (std::size_t r = 0; r < y.size(); ++r)
                y[r] = coeffs[r][slot];
            {
                Scope t = span("mlmodel.tree_fit", Layer::Mlmodel, sec);
                RegressionTree tree(opts.rbf.tree);
                tree.fit(x, y);
            }
            if (opts.model == CoefficientModel::Rbf) {
                Scope r = span("mlmodel.rbf_fit", Layer::Mlmodel, sec);
                RbfNetwork net(opts.rbf);
                net.fit(x, y);
            }
        }
    });
}

void
Replay::probePredict(const std::vector<TrainCell> &cells,
                     const std::vector<DesignPoint> &rows)
{
    Scope section = span("probe.predict", Layer::Core, -1, true);
    const int sec = section.id();
    parallelFor(ThreadPool::global(), cells.size(), [&](std::size_t i) {
        const WaveletNeuralPredictor &pred = *cells[i].pred;
        const DesignSpace &space = pred.designSpace();
        Matrix x(rows.size(), space.dimensions());
        for (std::size_t r = 0; r < rows.size(); ++r) {
            std::vector<double> norm = space.normalize(rows[r]);
            for (std::size_t d = 0; d < norm.size(); ++d)
                x.at(r, d) = norm[d];
        }
        const auto &models = pred.coefficientModels();
        std::vector<std::vector<double>> byModel;
        {
            Scope m = span("mlmodel.predict_many", Layer::Mlmodel, sec);
            for (const auto &model : models)
                byModel.push_back(model->predictMany(x));
        }
        predictRows.fetch_add(rows.size() * models.size(),
                              std::memory_order_relaxed);

        const std::vector<std::size_t> &selected = pred.selectedCoefficients();
        const std::size_t length = pred.traceLength();
        const PredictorOptions &opts = pred.options();
        std::vector<double> coeffs(length, 0.0);
        std::vector<double> trace(length);
        std::vector<double> scratch(length);
        Scope inv = span("wavelet.inverse", Layer::Wavelet, sec);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            for (std::size_t s = 0; s < selected.size(); ++s)
                coeffs[selected[s]] = byModel[s][r];
            if (opts.paperHaar)
                haarInverseInto(coeffs.data(), length, trace.data(),
                                scratch.data());
            else
                trace = WaveletTransform(opts.mother).inverse(coeffs);
        }
    });
}

void
Replay::trainBank(Bank &bank, const DesignSpace &space,
                  const std::vector<DesignPoint> &trainPoints,
                  const std::vector<std::map<Domain, Traces>> &traces,
                  bool warm, const std::vector<DesignPoint> &rows)
{
    std::vector<std::pair<std::size_t, Domain>> cells;
    for (std::size_t s = 0; s < bank.size(); ++s)
        for (const auto &entry : bank[s])
            cells.emplace_back(s, entry.first);
    {
        Scope section = span("exec.dispatch", Layer::Exec);
        const int sec = section.id();
        parallelFor(ThreadPool::global(), cells.size(), [&](std::size_t i) {
            const auto &[s, d] = cells[i];
            Scope t = span(warm ? "core.retrain" : "core.train", Layer::Core,
                           sec);
            bank[s].at(d).retrain(space, trainPoints, traces[s].at(d));
        });
    }
    std::vector<TrainCell> probeCells;
    for (const auto &[s, d] : cells)
        probeCells.push_back(
            {&bank[s].at(d), &trainPoints, &traces[s].at(d), warm});
    afterTraining(probeCells, rows);
}

int
Replay::replaySuite()
{
    Scope root = span("campaign:suite", Layer::Core);
    const std::vector<std::string> names = spec.scenarios.scenarioNames();
    for (const std::string &n : names)
        set.resolve(n);
    ExperimentSpec base = spec.experiment;
    base.scenarios = &set;

    std::vector<ExperimentPlan> plans;
    {
        Scope plan = span("core.plan", Layer::Core);
        for (const std::string &n : names) {
            ExperimentSpec e = base;
            e.benchmark = n;
            plans.push_back(planExperiment(e));
        }
    }
    std::vector<RunTask> tasks;
    for (std::size_t b = 0; b < names.size(); ++b) {
        appendRuns(tasks, set.at(names[b]), plans[b].space,
                   plans[b].trainPoints, base);
        appendRuns(tasks, set.at(names[b]), plans[b].space,
                   plans[b].testPoints, base);
    }
    std::vector<SimResult> results = runBatch(tasks);

    std::vector<std::map<Domain, Traces>> train(names.size());
    std::vector<std::map<Domain, Traces>> test(names.size());
    {
        Scope assemble = span("core.assemble", Layer::Core);
        std::size_t task = 0;
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (auto *out : {&train[b], &test[b]}) {
                std::size_t n = out == &train[b] ? plans[b].trainPoints.size()
                                                 : plans[b].testPoints.size();
                for (std::size_t i = 0; i < n; ++i, ++task) {
                    SimResult r = std::move(results[task]);
                    auto tr = r.traces(base.domains);
                    for (std::size_t d = 0; d < base.domains.size(); ++d)
                        (*out)[base.domains[d]].push_back(std::move(tr[d]));
                }
            }
        }
    }

    // One predictor per (scenario, domain) cell, as runSuite.
    std::vector<std::pair<std::size_t, Domain>> cells;
    for (std::size_t b = 0; b < names.size(); ++b)
        for (Domain d : base.domains)
            cells.emplace_back(b, d);
    std::vector<WaveletNeuralPredictor> preds;
    preds.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        preds.emplace_back(spec.predictor);
    {
        Scope section = span("exec.dispatch", Layer::Exec);
        const int sec = section.id();
        parallelFor(ThreadPool::global(), cells.size(), [&](std::size_t i) {
            const auto &[b, d] = cells[i];
            Scope t = span("core.train", Layer::Core, sec);
            preds[i].train(plans[b].space, plans[b].trainPoints,
                           train[b].at(d));
        });
    }
    std::vector<TrainCell> probeCells;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &[b, d] = cells[i];
        probeCells.push_back(
            {&preds[i], &plans[b].trainPoints, &train[b].at(d), false});
    }
    afterTraining(probeCells, plans.front().testPoints);
    {
        Scope section = span("exec.dispatch", Layer::Exec);
        const int sec = section.id();
        parallelFor(ThreadPool::global(), cells.size(), [&](std::size_t i) {
            const auto &[b, d] = cells[i];
            Scope e = span("core.evaluate", Layer::Core, sec);
            evaluatePredictor(preds[i], plans[b].testPoints, test[b].at(d));
            predict(preds[i], plans[b].testPoints);
        });
    }
    return root.id();
}

int
Replay::replayExplore()
{
    Scope root = span("campaign:explore", Layer::Dse);
    const std::vector<std::string> names = spec.scenarios.scenarioNames();
    for (const std::string &n : names)
        set.resolve(n);
    const std::vector<Domain> domains = domainsFor(spec.objectives);
    ExperimentSpec base = spec.experiment;
    base.domains = domains;
    base.scenarios = &set;

    std::vector<ExperimentPlan> plans;
    {
        Scope plan = span("core.plan", Layer::Core);
        for (const std::string &n : names) {
            ExperimentSpec e = base;
            e.benchmark = n;
            plans.push_back(planExperiment(e));
        }
    }
    std::vector<RunTask> tasks;
    for (std::size_t s = 0; s < names.size(); ++s) {
        appendRuns(tasks, set.at(names[s]), plans[s].space,
                   plans[s].trainPoints, base);
        appendRuns(tasks, set.at(names[s]), plans[s].space,
                   plans[s].testPoints, base);
    }
    std::vector<SimResult> results = runBatch(tasks);

    // Every scenario shares one sampling plan (it depends on the seed
    // alone), so the training set is one point list.
    const DesignSpace space = plans.front().space;
    std::vector<DesignPoint> trainPoints = plans.front().trainPoints;
    const std::vector<DesignPoint> testPoints = plans.front().testPoints;
    std::vector<std::map<Domain, Traces>> trainTraces(names.size());
    std::vector<std::map<Domain, Traces>> testTraces(names.size());
    {
        Scope assemble = span("core.assemble", Layer::Core);
        std::size_t task = 0;
        for (std::size_t s = 0; s < names.size(); ++s) {
            for (auto *out : {&trainTraces[s], &testTraces[s]}) {
                std::size_t n = out == &trainTraces[s] ? trainPoints.size()
                                                       : testPoints.size();
                for (std::size_t i = 0; i < n; ++i, ++task) {
                    SimResult r = std::move(results[task]);
                    auto tr = r.traces(domains);
                    for (std::size_t d = 0; d < domains.size(); ++d)
                        (*out)[domains[d]].push_back(std::move(tr[d]));
                }
            }
        }
    }

    const std::size_t spaceSize = space.trainSpaceSize();
    const std::size_t stride =
        spec.maxSweepPoints == 0 || spec.maxSweepPoints >= spaceSize
            ? 1
            : (spaceSize + spec.maxSweepPoints - 1) / spec.maxSweepPoints;
    const std::size_t sweepPoints = (spaceSize + stride - 1) / stride;
    // The first sweep chunk's points: the prediction probe's rows.
    std::vector<DesignPoint> chunkRows;
    for (std::size_t i = 0; i < std::min(sweepChunk(), sweepPoints); ++i)
        chunkRows.push_back(space.pointFromFlatTrainIndex(i * stride));

    Bank bank(names.size());
    for (auto &perScenario : bank)
        for (Domain d : domains)
            perScenario.emplace(d, WaveletNeuralPredictor(spec.predictor));
    trainBank(bank, space, trainPoints, trainTraces, false, chunkRows);

    // Round 0: the held-out baseline scores.
    {
        Scope round0 = span("dse.round0", Layer::Dse);
        Scores val = scores(bank, domains, testPoints);
        aggregate(spec.objectives, testPoints, val);
    }

    std::vector<const BenchmarkProfile *> profiles;
    for (const std::string &n : names)
        profiles.push_back(&set.at(n));
    std::set<DesignPoint> simulated(trainPoints.begin(), trainPoints.end());
    simulated.insert(testPoints.begin(), testPoints.end());
    const std::vector<ExploreRoundStats> &reported =
        ctx.reference->explore.rounds;
    std::size_t budgetLeft = spec.budget;
    std::size_t round = 1;
    std::vector<FrontPoint> finalFront;
    bool haveFinal = false;
    while (budgetLeft > 0) {
        std::vector<FrontPoint> front =
            sweep(bank, domains, space, stride, sweepPoints);
        if (round == 1 && reported.size() > 1)
            check(front.size() == reported[1].frontSize,
                  "round-1 front size " + std::to_string(front.size()) +
                      " vs reported " +
                      std::to_string(reported[1].frontSize));
        std::vector<FrontPoint> chosen;
        {
            Scope select = span("dse.select", Layer::Dse);
            addDistanceUncertainty(front, space, trainPoints);
            chosen = selectForRefinement(
                front, simulated, std::min(spec.perRound, budgetLeft));
        }
        if (chosen.empty()) {
            finalFront = std::move(front);
            haveFinal = true;
            break;
        }

        std::vector<RunTask> refine;
        for (const FrontPoint &fp : chosen)
            for (const BenchmarkProfile *p : profiles)
                appendRuns(refine, *p, space, {fp.point}, base);
        std::vector<SimResult> fresh = runBatch(refine);
        {
            Scope assemble = span("core.assemble", Layer::Core);
            std::size_t task = 0;
            for (const FrontPoint &fp : chosen) {
                simulated.insert(fp.point);
                trainPoints.push_back(fp.point);
                for (std::size_t s = 0; s < profiles.size(); ++s, ++task) {
                    auto tr = fresh[task].traces(domains);
                    for (std::size_t d = 0; d < domains.size(); ++d)
                        trainTraces[s][domains[d]].push_back(
                            std::move(tr[d]));
                }
            }
        }
        trainBank(bank, space, trainPoints, trainTraces, true, chunkRows);
        budgetLeft -= chosen.size();
        ++round;
    }
    if (!haveFinal) {
        finalFront = sweep(bank, domains, space, stride, sweepPoints);
        Scope select = span("dse.select", Layer::Dse);
        addDistanceUncertainty(finalFront, space, trainPoints);
    }
    frontSize = finalFront.size();
    return root.id();
}

void
Replay::probeScalar()
{
    struct Pick
    {
        const RunTask *task;
        std::uint64_t expected;
    };
    std::vector<Pick> picks;
    std::size_t seen = 0;
    for (const Batch &batch : batches)
        for (std::size_t i = 0; i < batch.tasks.size(); ++i)
            if (batch.computed[i] && seen++ % 4 == 0)
                picks.push_back({&batch.tasks[i], batch.digests[i]});
    if (picks.empty())
        return;

    Scope section = span("probe.scalar", Layer::Sim, -1, true);
    const int sec = section.id();
    std::vector<std::uint64_t> got(picks.size());
    parallelFor(ThreadPool::global(), picks.size(), [&](std::size_t k) {
        const RunTask &t = *picks[k].task;
        SimResult r;
        {
            Scope s = span("sim.scalar", Layer::Sim, sec);
            r = simulate(*t.benchmark, t.config, t.samples,
                         t.intervalInstrs, t.dvm);
        }
        got[k] = digest(r);
    });
    bool same = true;
    for (std::size_t k = 0; k < picks.size(); ++k)
        same = same && got[k] == picks[k].expected;
    check(same, "scalar simulate() differs from the batched replay");
    scalarRuns = picks.size();
}

void
Replay::probeDecode()
{
    Scope probe = span("probe.decode", Layer::Workload, -1, true);
    for (const std::string &n : spec.scenarios.scenarioNames()) {
        Scope s = span("workload.decode", Layer::Workload);
        InstructionStream stream(set.at(n), instrPerRun);
        InstructionStream::Cursor cursor(stream);
        for (std::uint64_t i = 0; i < instrPerRun; ++i)
            cursor.next();
        decodeInstrs += instrPerRun;
    }
}

ReplayOutcome
Replay::run()
{
    cache = ctx.openCache();
    const int root = spec.kind == CampaignKind::Suite ? replaySuite()
                                                      : replayExplore();
    const Attribution attribution = log.attribute(root);
    check(storesFailed.load() == 0, "result cache store failed");
    probeScalar();
    probeDecode();

    auto perSecond = [](double amount, double seconds) {
        return seconds > 0.0 ? amount / seconds : 0.0;
    };
    auto ratio = [](double part, double whole) {
        return whole > 0.0 ? part / whole : 0.0;
    };
    const double batchS = log.total("sim.batch");
    const double execS = log.total("exec.run");
    const double scalarS = log.total("sim.scalar");
    const double predictS = log.total("core.predict");
    const double jobs = static_cast<double>(ctx.jobs);

    ReplayOutcome out;
    auto &m = out.metrics;
    m["workload.decode_minstr_per_s"] =
        perSecond(static_cast<double>(decodeInstrs),
                  log.total("workload.decode")) / 1e6;
    m["sim.batch_s"] = batchS;
    m["sim.batch_kinstr_per_s"] =
        perSecond(static_cast<double>(computedRuns * instrPerRun), batchS) /
        1e3;
    m["sim.scalar_s"] = scalarS;
    m["sim.scalar_kinstr_per_s"] =
        perSecond(static_cast<double>(scalarRuns * instrPerRun), scalarS) /
        1e3;
    m["sim.lanes_per_call"] = ratio(static_cast<double>(computedRuns),
                                    static_cast<double>(simCalls));
    m["sim.instructions"] = static_cast<double>(instructions);
    m["sim.cycles"] = static_cast<double>(cycles);
    m["exec.run_s"] = execS;
    m["exec.busy_ratio"] = ratio(batchS, execS * jobs);
    m["exec.runs"] = static_cast<double>(execRuns);
    m["exec.computed"] = static_cast<double>(computedRuns);
    m["cache.load_us"] =
        ratio(log.total("cache.lookup"), static_cast<double>(loads)) * 1e6;
    m["cache.hit_ratio"] =
        ratio(static_cast<double>(hits), static_cast<double>(loads));
    m["cache.codec_us"] = ratio(static_cast<double>(codecNs) * 1e-3,
                                static_cast<double>(codecOps));
    m["cache.store_us"] = ratio(static_cast<double>(storeNs) * 1e-3,
                                static_cast<double>(storeCount));
    m["cache.stores"] = static_cast<double>(storesOk.load());
    m["core.plan_s"] = log.total("core.plan");
    m["core.assemble_s"] = log.total("core.assemble");
    m["core.train_s"] = log.total("core.train");
    m["core.retrain_s"] = log.total("core.retrain");
    m["core.predict_s"] = predictS;
    m["core.predict_points_per_s"] =
        perSecond(static_cast<double>(predictPoints.load()), predictS);
    m["wavelet.forward_s"] = log.total("wavelet.forward");
    m["wavelet.select_s"] = log.total("wavelet.select");
    m["wavelet.inverse_s"] = log.total("wavelet.inverse");
    m["mlmodel.rbf_fit_s"] = log.total("mlmodel.rbf_fit");
    m["mlmodel.tree_fit_s"] = log.total("mlmodel.tree_fit");
    m["mlmodel.rbf_units"] =
        ratio(unitsSum, static_cast<double>(unitsCount));
    m["mlmodel.predict_many_rows_per_s"] =
        perSecond(static_cast<double>(predictRows.load()),
                  log.total("mlmodel.predict_many"));
    m["dse.objective_s"] = log.total("dse.objective");
    m["dse.pareto_s"] = log.total("dse.pareto");
    m["dse.merge_s"] = log.total("dse.merge");
    m["dse.front_size"] = static_cast<double>(frontSize);
    m["dse.sweep_points"] = static_cast<double>(sweptPoints);
    // Only these layers have calls of their own on the path: decode
    // runs inside the sim calls, and the wavelet and mlmodel steps inside
    // predictor training and predictTraces (core); the probes above are
    // their only figures.
    for (Layer l : {Layer::Sim, Layer::Exec, Layer::Cache, Layer::Core,
                    Layer::Dse})
        m[std::string("share.") + layerName(l) + "_pct"] =
            100.0 * ratio(attribution.seconds[static_cast<std::size_t>(l)],
                          attribution.pathSeconds);

    out.pathSeconds = attribution.pathSeconds;
    out.checks = checks;
    out.failures = failures;
    return out;
}

} // anonymous namespace

ReplayOutcome
tracedReplay(const ReplayContext &ctx)
{
    Replay replay(ctx);
    return replay.run();
}

} // namespace perfbench
