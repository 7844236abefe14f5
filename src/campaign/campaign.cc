#include "campaign/campaign.hh"

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/scenario.hh"
#include "core/serialize.hh"
#include "core/sampling.hh"
#include "exec/scheduler.hh"
#include "telemetry/telemetry.hh"
#include "util/json_reader.hh"
#include "util/rng.hh"

namespace wavedyn
{

std::string
campaignKindName(CampaignKind k)
{
    switch (k) {
      case CampaignKind::Suite:
        return "suite";
      case CampaignKind::Explore:
        return "explore";
      case CampaignKind::Train:
        return "train";
      case CampaignKind::Evaluate:
        return "evaluate";
    }
    return "?";
}

bool
parseCampaignKind(const std::string &name, CampaignKind &out)
{
    if (name == "suite")
        out = CampaignKind::Suite;
    else if (name == "explore")
        out = CampaignKind::Explore;
    else if (name == "train")
        out = CampaignKind::Train;
    else if (name == "evaluate")
        out = CampaignKind::Evaluate;
    else
        return false;
    return true;
}

std::vector<std::string>
ScenarioSelection::scenarioNames() const
{
    std::vector<std::string> out = names;
    // Generated names are pure functions of (family, seed, index) —
    // the same construction ScenarioGenerator uses — so the full list
    // exists without generating a single profile.
    for (std::size_t i = 0; i < count; ++i)
        out.push_back("gen/" + familyName(family) + "/s" +
                      std::to_string(seed) + "/" + std::to_string(i));
    return out;
}

namespace
{

// ---------------------------------------------------------------------
// enum <-> spec-name helpers (local: the spec layer owns the names)

std::string
selectionName(SelectionScheme s)
{
    return s == SelectionScheme::Magnitude ? "magnitude" : "order";
}

SelectionScheme
selectionByName(const std::string &name, const std::string &path)
{
    if (name == "magnitude")
        return SelectionScheme::Magnitude;
    if (name == "order")
        return SelectionScheme::Order;
    throw std::invalid_argument(path + ": unknown selection scheme '" +
                                name + "' (known: magnitude, order)");
}

std::string
coefficientModelName(CoefficientModel m)
{
    switch (m) {
      case CoefficientModel::Rbf:
        return "rbf";
      case CoefficientModel::Linear:
        return "linear";
      case CoefficientModel::GlobalMean:
        return "global-mean";
    }
    return "?";
}

CoefficientModel
coefficientModelByName(const std::string &name, const std::string &path)
{
    if (name == "rbf")
        return CoefficientModel::Rbf;
    if (name == "linear")
        return CoefficientModel::Linear;
    if (name == "global-mean")
        return CoefficientModel::GlobalMean;
    throw std::invalid_argument(path + ": unknown coefficient model '" +
                                name +
                                "' (known: rbf, linear, global-mean)");
}

std::string
motherSpecName(MotherWavelet w)
{
    return w == MotherWavelet::Haar ? "haar" : "daubechies4";
}

MotherWavelet
motherByName(const std::string &name, const std::string &path)
{
    if (name == "haar")
        return MotherWavelet::Haar;
    if (name == "daubechies4")
        return MotherWavelet::Daubechies4;
    throw std::invalid_argument(path + ": unknown mother wavelet '" +
                                name + "' (known: haar, daubechies4)");
}

// ---------------------------------------------------------------------
// toJson pieces (field-path extraction via the shared ObjectReader,
// util/json_reader.hh; DvmConfig serialization lives with DvmConfig,
// dvm/controller.hh, because cache keys canonicalise it too)

JsonValue
experimentToJson(const ExperimentSpec &e)
{
    JsonValue v = JsonValue::object();
    v.set("train_points", std::uint64_t{e.trainPoints});
    v.set("test_points", std::uint64_t{e.testPoints});
    v.set("samples", std::uint64_t{e.samples});
    v.set("interval_instrs", std::uint64_t{e.intervalInstrs});
    v.set("seed", std::uint64_t{e.seed});
    v.set("lhs_candidates", std::uint64_t{e.lhsCandidates});
    v.set("random_training", e.randomTraining);
    JsonValue domains = JsonValue::array();
    for (Domain d : e.domains)
        domains.push(domainSpecName(d));
    v.set("domains", std::move(domains));
    v.set("dvm", toJson(e.dvm));
    return v;
}

ExperimentSpec
experimentFromJson(const JsonValue &doc, const std::string &path)
{
    ExperimentSpec e;
    ObjectReader r(doc, path);
    e.trainPoints = r.getSize("train_points", e.trainPoints);
    e.testPoints = r.getSize("test_points", e.testPoints);
    e.samples = r.getSize("samples", e.samples);
    e.intervalInstrs = r.getSize("interval_instrs", e.intervalInstrs);
    e.seed = r.getUint("seed", e.seed);
    e.lhsCandidates = r.getSize("lhs_candidates", e.lhsCandidates);
    e.randomTraining = r.getBool("random_training", e.randomTraining);
    if (const JsonValue *domains = r.get("domains")) {
        if (!domains->isArray())
            throw std::invalid_argument(r.memberPath("domains") +
                                        ": expected an array, got " +
                                        domains->typeName());
        e.domains.clear();
        for (std::size_t i = 0; i < domains->size(); ++i) {
            const JsonValue &d = domains->at(i);
            std::string at = r.memberPath("domains") + "[" +
                             std::to_string(i) + "]";
            if (!d.isString())
                throw std::invalid_argument(at +
                                            ": expected a string, got " +
                                            d.typeName());
            Domain dom;
            if (!parseDomain(d.asString(), dom))
                throw std::invalid_argument(
                    at + ": unknown domain '" + d.asString() +
                    "' (known: cpi, power, avf, iqavf)");
            e.domains.push_back(dom);
        }
    }
    if (const JsonValue *dvm = r.get("dvm"))
        e.dvm = dvmConfigFromJson(*dvm, r.memberPath("dvm"));
    r.finish();
    return e;
}

JsonValue
predictorToJson(const PredictorOptions &p)
{
    JsonValue v = JsonValue::object();
    v.set("coefficients", std::uint64_t{p.coefficients});
    v.set("selection", selectionName(p.selection));
    v.set("model", coefficientModelName(p.model));
    v.set("paper_haar", p.paperHaar);
    v.set("mother", motherSpecName(p.mother));
    v.set("clamp_to_training_range", p.clampToTrainingRange);
    return v;
}

PredictorOptions
predictorFromJson(const JsonValue &doc, const std::string &path)
{
    PredictorOptions p;
    ObjectReader r(doc, path);
    p.coefficients = r.getSize("coefficients", p.coefficients);
    p.selection = selectionByName(
        r.getString("selection", selectionName(p.selection)),
        r.memberPath("selection"));
    p.model = coefficientModelByName(
        r.getString("model", coefficientModelName(p.model)),
        r.memberPath("model"));
    p.paperHaar = r.getBool("paper_haar", p.paperHaar);
    p.mother = motherByName(
        r.getString("mother", motherSpecName(p.mother)),
        r.memberPath("mother"));
    p.clampToTrainingRange = r.getBool("clamp_to_training_range",
                                       p.clampToTrainingRange);
    r.finish();
    return p;
}

JsonValue
scenariosToJson(const ScenarioSelection &s)
{
    JsonValue v = JsonValue::object();
    JsonValue names = JsonValue::array();
    for (const auto &n : s.names)
        names.push(n);
    v.set("names", std::move(names));
    if (s.count > 0) {
        JsonValue gen = JsonValue::object();
        gen.set("family", familyName(s.family));
        gen.set("seed", std::uint64_t{s.seed});
        gen.set("count", std::uint64_t{s.count});
        v.set("generate", std::move(gen));
    }
    return v;
}

ScenarioSelection
scenariosFromJson(const JsonValue &doc, const std::string &path)
{
    ScenarioSelection s;
    ObjectReader r(doc, path);
    s.names = r.getStringArray("names");
    if (const JsonValue *gen = r.get("generate")) {
        ObjectReader g(*gen, r.memberPath("generate"));
        std::string fam = g.getString("family", familyName(s.family));
        if (!parseFamily(fam, s.family))
            throw std::invalid_argument(
                g.memberPath("family") + ": unknown workload family '" +
                fam + "'");
        s.seed = g.getUint("seed", s.seed);
        s.count = g.getSize("count", s.count);
        g.finish();
        if (s.count == 0)
            throw std::invalid_argument(
                g.memberPath("count") +
                ": a generate block must have a non-zero count");
    }
    r.finish();
    return s;
}

} // anonymous namespace

JsonValue
toJson(const CampaignSpec &spec)
{
    JsonValue v = JsonValue::object();
    v.set("kind", campaignKindName(spec.kind));
    v.set("scenarios", scenariosToJson(spec.scenarios));
    v.set("experiment", experimentToJson(spec.experiment));
    v.set("predictor", predictorToJson(spec.predictor));
    switch (spec.kind) {
      case CampaignKind::Suite:
        break;
      case CampaignKind::Explore: {
        JsonValue e = JsonValue::object();
        JsonValue objs = JsonValue::array();
        for (Objective o : spec.objectives)
            objs.push(objectiveName(o));
        e.set("objectives", std::move(objs));
        e.set("budget", std::uint64_t{spec.budget});
        e.set("per_round", std::uint64_t{spec.perRound});
        e.set("chunk", std::uint64_t{spec.chunk});
        e.set("max_sweep_points", std::uint64_t{spec.maxSweepPoints});
        v.set("explore", std::move(e));
        break;
      }
      case CampaignKind::Train:
      case CampaignKind::Evaluate: {
        JsonValue m = JsonValue::object();
        m.set("domain", domainSpecName(spec.domain));
        m.set("model_path", spec.modelPath);
        v.set(campaignKindName(spec.kind), std::move(m));
        break;
      }
    }
    return v;
}

CampaignSpec
campaignSpecFromJson(const JsonValue &doc)
{
    CampaignSpec spec;
    ObjectReader r(doc, "campaign");
    std::string kind = r.requireString("kind");
    if (!parseCampaignKind(kind, spec.kind))
        throw std::invalid_argument(
            r.memberPath("kind") + ": unknown campaign kind '" + kind +
            "' (known: suite, explore, train, evaluate)");
    if (const JsonValue *s = r.get("scenarios"))
        spec.scenarios = scenariosFromJson(*s, r.memberPath("scenarios"));
    if (const JsonValue *e = r.get("experiment"))
        spec.experiment = experimentFromJson(*e,
                                             r.memberPath("experiment"));
    if (const JsonValue *p = r.get("predictor"))
        spec.predictor = predictorFromJson(*p, r.memberPath("predictor"));

    // Per-kind blocks. Asking for another kind's knobs is a spec bug
    // worth naming, not an unknown field.
    for (const char *block : {"explore", "train", "evaluate"}) {
        const JsonValue *b = r.get(block);
        if (b && campaignKindName(spec.kind) != block)
            throw std::invalid_argument(
                std::string("campaign.") + block +
                ": only valid when kind is '" + block + "' (kind is '" +
                campaignKindName(spec.kind) + "')");
        if (!b)
            continue;
        if (spec.kind == CampaignKind::Explore) {
            ObjectReader e(*b, r.memberPath("explore"));
            if (const JsonValue *objs = e.get("objectives")) {
                if (!objs->isArray())
                    throw std::invalid_argument(
                        e.memberPath("objectives") +
                        ": expected an array, got " + objs->typeName());
                spec.objectives.clear();
                for (std::size_t i = 0; i < objs->size(); ++i) {
                    const JsonValue &o = objs->at(i);
                    std::string at = e.memberPath("objectives") + "[" +
                                     std::to_string(i) + "]";
                    if (!o.isString())
                        throw std::invalid_argument(
                            at + ": expected a string, got " +
                            o.typeName());
                    Objective obj;
                    if (!parseObjective(o.asString(), obj))
                        throw std::invalid_argument(
                            at + ": unknown objective '" + o.asString() +
                            "' (known: cpi, bips, power, energy, avf)");
                    spec.objectives.push_back(obj);
                }
            }
            spec.budget = e.getSize("budget", spec.budget);
            spec.perRound = e.getSize("per_round", spec.perRound);
            spec.chunk = e.getSize("chunk", spec.chunk);
            spec.maxSweepPoints = e.getSize("max_sweep_points",
                                            spec.maxSweepPoints);
            e.finish();
        } else {
            ObjectReader m(*b, r.memberPath(block));
            std::string dom = m.getString("domain",
                                          domainSpecName(spec.domain));
            if (!parseDomain(dom, spec.domain))
                throw std::invalid_argument(
                    m.memberPath("domain") + ": unknown domain '" + dom +
                    "' (known: cpi, power, avf, iqavf)");
            spec.modelPath = m.getString("model_path", spec.modelPath);
            m.finish();
        }
    }
    r.finish();
    return spec;
}

bool
operator==(const CampaignSpec &a, const CampaignSpec &b)
{
    return toJson(a) == toJson(b);
}

bool
operator!=(const CampaignSpec &a, const CampaignSpec &b)
{
    return !(a == b);
}

CampaignSpec
parseCampaignSpec(const std::string &text)
{
    CampaignSpec spec = campaignSpecFromJson(parseJson(text));
    validateCampaign(spec);
    return spec;
}

void
validateCampaign(const CampaignSpec &spec)
{
    auto reject = [](const std::string &path, const std::string &what) {
        throw std::invalid_argument("campaign." + path + ": " + what);
    };

    const std::vector<std::string> names = spec.scenarios.scenarioNames();
    if (names.empty())
        reject("scenarios",
               "needs explicit names or a generate block (the spec is "
               "self-contained; there is no implicit default suite)");
    std::set<std::string> unique;
    for (const auto &n : names)
        if (!unique.insert(n).second)
            reject("scenarios", "scenario '" + n +
                                    "' appears more than once");

    const ExperimentSpec &e = spec.experiment;
    const bool simulatesCampaign = spec.kind != CampaignKind::Evaluate;
    if (simulatesCampaign && e.trainPoints == 0)
        reject("experiment.train_points", "must be non-zero");
    if (e.testPoints == 0)
        reject("experiment.test_points", "must be non-zero");
    if (e.samples == 0)
        reject("experiment.samples", "must be non-zero");
    if (e.intervalInstrs == 0)
        reject("experiment.interval_instrs", "must be non-zero");
    if (simulatesCampaign && e.lhsCandidates == 0)
        reject("experiment.lhs_candidates", "must be non-zero");
    if (e.domains.empty())
        reject("experiment.domains", "must name at least one domain");
    if (!std::isfinite(e.dvm.threshold))
        reject("experiment.dvm.threshold", "must be finite");
    if (e.dvm.enabled && e.dvm.sampleCycles == 0)
        reject("experiment.dvm.sample_cycles",
               "must be non-zero when dvm is enabled");
    if (simulatesCampaign && spec.predictor.coefficients == 0)
        reject("predictor.coefficients", "must be non-zero");

    switch (spec.kind) {
      case CampaignKind::Suite:
        break;
      case CampaignKind::Explore: {
        if (spec.objectives.empty())
            reject("explore.objectives",
                   "must name at least one objective");
        std::set<Objective> seenObjectives;
        for (Objective o : spec.objectives)
            if (!seenObjectives.insert(o).second)
                reject("explore.objectives", "objective '" +
                                                 objectiveName(o) +
                                                 "' appears more than "
                                                 "once");
        if (spec.budget > 0 && spec.perRound == 0)
            reject("explore.per_round",
                   "must be non-zero when budget > 0");
        break;
      }
      case CampaignKind::Train:
      case CampaignKind::Evaluate: {
        const std::string block = campaignKindName(spec.kind);
        if (names.size() != 1)
            reject("scenarios", block + " campaigns run exactly one "
                                        "scenario, got " +
                                    std::to_string(names.size()));
        if (spec.modelPath.empty())
            reject(block + ".model_path", "must be non-empty");
        break;
      }
    }
}

namespace
{

/** Resolve the selection into a concrete set + ordered name list. */
std::vector<std::string>
materialiseScenarios(const CampaignSpec &spec, ScenarioSet &set)
{
    std::vector<std::string> names = spec.scenarios.names;
    for (const auto &n : names)
        set.resolve(n); // throws std::out_of_range on unknown names
    if (spec.scenarios.count > 0) {
        auto generated = set.addGenerated(spec.scenarios.family,
                                          spec.scenarios.seed,
                                          spec.scenarios.count);
        names.insert(names.end(), generated.begin(), generated.end());
    }
    return names;
}

CampaignResult
runTrain(const CampaignSpec &spec, const std::string &benchmark,
         const ExperimentSpec &base, const CampaignHooks &hooks)
{
    if (hooks.phase)
        hooks.phase("simulating " + std::to_string(base.trainPoints) +
                    " training configurations of '" + benchmark + "'");
    ExperimentSpec e = base;
    e.domains = {spec.domain};
    // Training only consumes the training traces, and the test sample
    // is drawn after the training sample so its size cannot change the
    // model: clamp the mandatory (validateCampaign: non-zero) test
    // sweep to its minimum instead of simulating throwaway
    // configurations — for every front-end, not just the CLI builder.
    e.testPoints = 1;
    auto data = std::move(
        simulateSuiteDatasets({benchmark}, e, hooks).front());

    if (hooks.phase)
        hooks.phase("training " + domainSpecName(spec.domain) +
                    " predictor (" +
                    std::to_string(spec.predictor.coefficients) +
                    " coefficients)");
    WaveletNeuralPredictor model(spec.predictor);
    model.train(data.space, data.trainPoints,
                data.trainTraces.at(spec.domain));

    if (!savePredictorFile(model, spec.modelPath))
        throw std::runtime_error("cannot write model file '" +
                                 spec.modelPath + "'");

    CampaignResult result;
    result.kind = CampaignKind::Train;
    result.benchmark = benchmark;
    result.domain = spec.domain;
    result.modelPath = spec.modelPath;
    result.coefficientModels = model.selectedCoefficients().size();
    result.traceLength = model.traceLength();
    return result;
}

CampaignResult
runEvaluate(const CampaignSpec &spec, const std::string &benchmark,
            const ExperimentSpec &base, const ScenarioSet &set,
            const CampaignHooks &hooks)
{
    auto model = loadPredictorFile(spec.modelPath);
    if (hooks.phase)
        hooks.phase("simulating " + std::to_string(base.testPoints) +
                    " fresh test configurations of '" + benchmark +
                    "'");

    Rng rng(base.seed);
    auto space = model.designSpace();
    auto points = randomTestSample(space, base.testPoints, rng);

    const BenchmarkProfile &profile = set.at(benchmark);
    RunScheduler sched(base.seed);
    attachHooks(sched, hooks);
    for (const auto &p : points) {
        RunTask task;
        task.benchmark = &profile;
        task.config = SimConfig::fromDesignPoint(space, p);
        task.samples = model.traceLength();
        task.intervalInstrs = base.intervalInstrs;
        task.dvm = base.dvm;
        sched.enqueue(std::move(task));
    }
    sched.run();

    std::vector<std::vector<double>> actual;
    actual.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        actual.push_back(sched.takeResult(i).trace(spec.domain));

    CampaignResult result;
    result.kind = CampaignKind::Evaluate;
    result.benchmark = benchmark;
    result.domain = spec.domain;
    result.modelPath = spec.modelPath;
    result.evaluation = evaluatePredictor(model, points, actual);
    return result;
}

CampaignResult
runCampaignDispatch(const CampaignSpec &spec, const CampaignHooks &hooks)
{
    validateCampaign(spec);

    // The set must outlive the whole campaign: specs and schedulers
    // hold pointers into it. Starting from the paper twelve means
    // explicit names resolve exactly as they do on the CLI.
    ScenarioSet set = ScenarioSet::paperCopy();
    const std::vector<std::string> names =
        materialiseScenarios(spec, set);

    ExperimentSpec base = spec.experiment;
    base.scenarios = &set;

    switch (spec.kind) {
      case CampaignKind::Suite: {
        if (hooks.phase)
            hooks.phase("running " + std::to_string(names.size()) +
                        "-scenario suite campaign");
        CampaignResult result;
        result.kind = CampaignKind::Suite;
        result.suite = runSuite(names, base, spec.predictor, hooks);
        return result;
      }
      case CampaignKind::Explore: {
        ExploreSpec espec;
        espec.base = base;
        espec.scenarios = names;
        espec.objectives = spec.objectives;
        espec.budget = spec.budget;
        espec.perRound = spec.perRound;
        espec.chunk = spec.chunk;
        espec.maxSweepPoints = spec.maxSweepPoints;
        espec.predictor = spec.predictor;
        CampaignResult result;
        result.kind = CampaignKind::Explore;
        result.explore = runExplore(espec, hooks);
        return result;
      }
      case CampaignKind::Train:
        return runTrain(spec, names.front(), base, hooks);
      case CampaignKind::Evaluate:
        return runEvaluate(spec, names.front(), base, set, hooks);
    }
    throw std::logic_error("unhandled campaign kind");
}

} // anonymous namespace

CampaignResult
runCampaign(const CampaignSpec &spec, const CampaignHooks &hooks)
{
    // Count result-cache activity on behalf of every campaign kind
    // while forwarding the events (and all other hooks) unchanged.
    // runCacheStore fires from worker threads, so the counters are
    // atomics.
    std::atomic<std::uint64_t> hits{0}, misses{0}, stores{0},
        storeFailures{0};
    CampaignHooks counting = hooks;
    counting.runCacheHit = [&](const std::string &key) {
        hits.fetch_add(1, std::memory_order_relaxed);
        if (hooks.runCacheHit)
            hooks.runCacheHit(key);
    };
    counting.runCacheMiss = [&](const std::string &key) {
        misses.fetch_add(1, std::memory_order_relaxed);
        if (hooks.runCacheMiss)
            hooks.runCacheMiss(key);
    };
    counting.runCacheStore = [&](const std::string &key) {
        stores.fetch_add(1, std::memory_order_relaxed);
        if (hooks.runCacheStore)
            hooks.runCacheStore(key);
    };
    counting.runCacheStoreFailed = [&](const std::string &key) {
        storeFailures.fetch_add(1, std::memory_order_relaxed);
        if (hooks.runCacheStoreFailed)
            hooks.runCacheStoreFailed(key);
    };

    // One top-level span per campaign (cat "campaign"); phase spans
    // nest inside it. The span is observation only — nothing from the
    // tracer flows back into `result`.
    ScopedSpan span = spanTracer().span(
        "campaign:" + campaignKindName(spec.kind), "campaign");
    CampaignResult result = runCampaignDispatch(spec, counting);
    result.cacheHits = hits.load(std::memory_order_relaxed);
    result.cacheMisses = misses.load(std::memory_order_relaxed);
    result.cacheStores = stores.load(std::memory_order_relaxed);
    result.cacheStoreFailures =
        storeFailures.load(std::memory_order_relaxed);
    return result;
}

} // namespace wavedyn
