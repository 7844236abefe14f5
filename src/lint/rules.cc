#include "lint/rules.hh"

#include <algorithm>
#include <cctype>

namespace wavedyn::lint
{

namespace
{

constexpr const char *kDetRand = "determinism-rand";
constexpr const char *kDetClock = "determinism-clock";
constexpr const char *kDetUnordered = "determinism-unordered";
constexpr const char *kLayering = "layering";
constexpr const char *kLayeringUnknown = "layering-unknown-module";
constexpr const char *kLayeringTelemetry = "layering-telemetry";
constexpr const char *kCrashWrite = "crash-safety-write";
constexpr const char *kCrashCloexec = "crash-safety-cloexec";
constexpr const char *kHygieneGuard = "hygiene-header-guard";
constexpr const char *kHygieneUsing = "hygiene-using-namespace";
constexpr const char *kHygieneUnused = "hygiene-unused-suppression";

bool
isHeader(const std::string &path)
{
    auto ends = [&](const char *suf) {
        std::size_t n = std::string(suf).size();
        return path.size() >= n &&
               path.compare(path.size() - n, n, suf) == 0;
    };
    return ends(".hh") || ends(".h") || ends(".hpp");
}

/** "src/exec/scheduler.cc" -> "exec"; "" when not under src/. */
std::string
moduleOf(const std::string &path)
{
    if (path.compare(0, 4, "src/") != 0)
        return "";
    std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "";
    return path.substr(4, slash - 4);
}

/** First path segment of an include operand, "" when it has none. */
std::string
includeModule(const std::string &inc)
{
    std::size_t slash = inc.find('/');
    if (slash == std::string::npos)
        return "";
    return inc.substr(0, slash);
}

// ---------------------------------------------------------- determinism

void
checkRand(const SourceFile &f, std::vector<Violation> *out)
{
    // Identifier anywhere: these names have no legitimate use.
    static const char *kIdents[] = {"random_device", "mt19937",
                                    "mt19937_64", "minstd_rand",
                                    "default_random_engine"};
    // Call position only: short names that could name a member.
    static const char *kCalls[] = {"rand",    "srand",   "rand_r",
                                   "drand48", "lrand48", "random"};
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string &code = f.lines[i].code;
        for (const char *t : kIdents)
            if (containsToken(code, t))
                out->push_back({f.path, i + 1, kDetRand,
                                std::string(t) +
                                    " is not seed-addressable; use "
                                    "util/rng (counter-based, "
                                    "deterministic)"});
        for (const char *t : kCalls)
            if (containsCall(code, t))
                out->push_back({f.path, i + 1, kDetRand,
                                std::string(t) +
                                    "() is not seed-addressable; use "
                                    "util/rng (counter-based, "
                                    "deterministic)"});
    }
}

void
checkClock(const SourceFile &f, std::vector<Violation> *out)
{
    static const char *kIdents[] = {"system_clock", "steady_clock",
                                    "high_resolution_clock"};
    static const char *kCalls[] = {"clock_gettime", "gettimeofday",
                                   "timespec_get", "time",   "clock",
                                   "localtime",    "gmtime", "ctime",
                                   "localtime_r",  "gmtime_r"};
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string &code = f.lines[i].code;
        for (const char *t : kIdents)
            if (containsToken(code, t))
                out->push_back(
                    {f.path, i + 1, kDetClock,
                     std::string(t) +
                         " outside the clock allowlist: results must "
                         "not depend on when they were computed"});
        for (const char *t : kCalls)
            if (containsCall(code, t))
                out->push_back(
                    {f.path, i + 1, kDetClock,
                     std::string(t) +
                         "() outside the clock allowlist: results "
                         "must not depend on when they were computed"});
    }
}

void
checkUnordered(const SourceFile &f, std::vector<Violation> *out)
{
    static const char *kIdents[] = {"unordered_map", "unordered_set",
                                    "unordered_multimap",
                                    "unordered_multiset"};
    for (std::size_t i = 0; i < f.lines.size(); ++i)
        for (const char *t : kIdents)
            if (containsToken(f.lines[i].code, t))
                out->push_back(
                    {f.path, i + 1, kDetUnordered,
                     std::string(t) +
                         " in byte-stable output code: hash iteration "
                         "order would feed report bytes; use std::map "
                         "or sort before emitting"});
}

// ------------------------------------------------------------- layering

void
checkLayering(const SourceFile &f, const LintConfig &cfg,
              std::vector<Violation> *out)
{
    std::string mod = moduleOf(f.path);
    if (mod.empty())
        return; // tools/bench/tests/examples may include anything

    auto rankIt = cfg.moduleRank.find(mod);
    if (rankIt == cfg.moduleRank.end()) {
        if (cfg.applies(kLayeringUnknown, f.path))
            out->push_back(
                {f.path, 1, kLayeringUnknown,
                 "module '" + mod +
                     "' is not in lint.toml's [layering] table; new "
                     "subsystems must declare their layer"});
        return;
    }

    bool telemetry = (mod == "telemetry");
    for (const IncludeDirective &inc : f.includes) {
        if (!inc.quoted)
            continue;
        std::string incMod = includeModule(inc.path);
        if (incMod.empty() || incMod == mod)
            continue;
        if (telemetry) {
            if (cfg.applies(kLayeringTelemetry, f.path) &&
                std::find(cfg.telemetryMayInclude.begin(),
                          cfg.telemetryMayInclude.end(),
                          incMod) == cfg.telemetryMayInclude.end())
                out->push_back(
                    {f.path, inc.line, kLayeringTelemetry,
                     "telemetry observes, never participates: it may "
                     "not include '" + inc.path + "'"});
            continue;
        }
        if (!cfg.applies(kLayering, f.path))
            continue;
        auto incIt = cfg.moduleRank.find(incMod);
        if (incIt == cfg.moduleRank.end()) {
            out->push_back({f.path, inc.line, kLayeringUnknown,
                            "included module '" + incMod +
                                "' is not in lint.toml's [layering] "
                                "table"});
            continue;
        }
        if (incIt->second > rankIt->second)
            out->push_back(
                {f.path, inc.line, kLayering,
                 "'" + mod + "' (layer " +
                     std::to_string(rankIt->second) +
                     ") may not include '" + inc.path + "' (layer " +
                     std::to_string(incIt->second) +
                     "): the include DAG goes strictly downward"});
    }
}

// --------------------------------------------------------- crash safety

void
checkWrite(const SourceFile &f, std::vector<Violation> *out)
{
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string &code = f.lines[i].code;
        if (containsToken(code, "ofstream"))
            out->push_back(
                {f.path, i + 1, kCrashWrite,
                 "direct std::ofstream write: publish final files "
                 "atomically via util/atomic_file writeFileAtomic"});
        for (const char *t : {"fopen", "freopen"})
            if (containsCall(code, t))
                out->push_back(
                    {f.path, i + 1, kCrashWrite,
                     std::string(t) +
                         "(): publish final files atomically via "
                         "util/atomic_file writeFileAtomic"});
    }
}

/**
 * Join the argument list of a call starting at the '(' that follows
 * @p tokenPos on line @p lineIdx: code text until the matching ')',
 * capped at 12 lines.
 */
std::string
callArgs(const SourceFile &f, std::size_t lineIdx, std::size_t tokenPos)
{
    std::string args;
    int depth = 0;
    bool started = false;
    for (std::size_t i = lineIdx;
         i < f.lines.size() && i < lineIdx + 12; ++i) {
        const std::string &code = f.lines[i].code;
        for (std::size_t j = (i == lineIdx ? tokenPos : 0);
             j < code.size(); ++j) {
            char c = code[j];
            if (c == '(') {
                ++depth;
                started = true;
            } else if (c == ')') {
                if (--depth == 0)
                    return args;
            } else if (started) {
                args += c;
            }
        }
        args += ' ';
    }
    return args;
}

void
checkCloexec(const SourceFile &f, std::vector<Violation> *out)
{
    static const char *kFlags[] = {"O_RDONLY", "O_WRONLY", "O_RDWR",
                                   "O_CREAT",  "O_APPEND", "O_TRUNC",
                                   "O_EXCL"};
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string &code = f.lines[i].code;
        for (const char *fn : {"open", "openat"}) {
            std::size_t pos = 0;
            while ((pos = findToken(code, fn, pos)) !=
                   std::string::npos) {
                std::size_t j = pos + std::string(fn).size();
                while (j < code.size() && code[j] == ' ')
                    ++j;
                if (j >= code.size() || code[j] != '(') {
                    pos = j;
                    continue;
                }
                std::string args = callArgs(f, i, pos);
                bool hasFlags = false;
                for (const char *flag : kFlags)
                    hasFlags = hasFlags || containsToken(args, flag);
                if (hasFlags && !containsToken(args, "O_CLOEXEC"))
                    out->push_back(
                        {f.path, i + 1, kCrashCloexec,
                         std::string(fn) +
                             "() without O_CLOEXEC: the fd leaks into "
                             "every process the host program later "
                             "spawns"});
                pos = j;
            }
        }
    }
}

// -------------------------------------------------------------- hygiene

void
checkHeaderGuard(const SourceFile &f, std::vector<Violation> *out)
{
    if (!isHeader(f.path))
        return;
    std::vector<std::pair<std::size_t, std::string>> directives;
    for (std::size_t i = 0;
         i < f.lines.size() && directives.size() < 3; ++i) {
        std::string t = f.lines[i].code;
        std::size_t b = t.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        t = t.substr(b);
        if (t.find_first_not_of(" \t") == std::string::npos)
            continue;
        directives.emplace_back(i + 1, t);
    }
    if (directives.empty())
        return; // an empty header guards nothing
    const std::string &first = directives[0].second;
    if (first.compare(0, 7, "#pragma") == 0 &&
        containsToken(first, "once"))
        return;
    if (first.compare(0, 7, "#ifndef") == 0 && directives.size() >= 2 &&
        directives[1].second.compare(0, 7, "#define") == 0)
        return;
    out->push_back({f.path, directives[0].first, kHygieneGuard,
                    "header must start with an include guard "
                    "(#ifndef/#define) or #pragma once"});
}

void
checkUsingNamespace(const SourceFile &f, std::vector<Violation> *out)
{
    if (!isHeader(f.path))
        return;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string &code = f.lines[i].code;
        std::size_t u = findToken(code, "using");
        if (u == std::string::npos)
            continue;
        std::size_t ns = findToken(code, "namespace", u);
        if (ns == std::string::npos)
            continue;
        if (findToken(code, "std", ns) != std::string::npos)
            out->push_back({f.path, i + 1, kHygieneUsing,
                            "'using namespace std' in a header "
                            "poisons every includer"});
    }
}

// --------------------------------------------------------- suppressions

struct Suppression
{
    std::size_t line; //!< 1-based
    std::string rule;
    bool used = false;
};

/** Parse inline suppression directives (rules.hh) out of comments. */
std::vector<Suppression>
collectSuppressions(const SourceFile &f, std::vector<Violation> *out)
{
    std::vector<Suppression> sups;
    const std::string kTag = "wavedyn-lint:";
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string &comment = f.lines[i].comment;
        std::size_t tag = comment.find(kTag);
        if (tag == std::string::npos)
            continue;
        // Prose mentioning the marker is not a directive: only text
        // that goes on with "allow" is treated (and then validated)
        // as one.
        std::size_t rest = comment.find_first_not_of(
            " \t", tag + kTag.size());
        if (rest == std::string::npos ||
            comment.compare(rest, 5, "allow") != 0)
            continue;
        std::size_t open = comment.find("allow(", tag);
        std::size_t close =
            open == std::string::npos ? std::string::npos
                                      : comment.find(')', open);
        if (close == std::string::npos) {
            out->push_back({f.path, i + 1, kHygieneUnused,
                            "malformed suppression; expected the "
                            "marker, then allow(rule-id)"});
            continue;
        }
        std::string ids = comment.substr(open + 6, close - open - 6);
        std::size_t start = 0;
        while (start <= ids.size()) {
            std::size_t comma = ids.find(',', start);
            std::string id = ids.substr(
                start, comma == std::string::npos ? std::string::npos
                                                  : comma - start);
            std::size_t b = id.find_first_not_of(" \t");
            if (b != std::string::npos) {
                std::size_t e = id.find_last_not_of(" \t");
                id = id.substr(b, e - b + 1);
                const auto &known = allRuleIds();
                if (std::find(known.begin(), known.end(), id) ==
                    known.end())
                    out->push_back({f.path, i + 1, kHygieneUnused,
                                    "suppression names unknown "
                                    "rule-id '" + id + "'"});
                else
                    sups.push_back({i + 1, id});
            }
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }
    return sups;
}

} // namespace

bool
operator<(const Violation &a, const Violation &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.rule != b.rule)
        return a.rule < b.rule;
    return a.message < b.message;
}

std::string
formatViolation(const Violation &v)
{
    return v.file + ":" + std::to_string(v.line) + ": " + v.rule + ": " +
           v.message;
}

const std::vector<std::string> &
allRuleIds()
{
    static const std::vector<std::string> kIds = {
        kDetRand,      kDetClock,          kDetUnordered,
        kLayering,     kLayeringUnknown,   kLayeringTelemetry,
        kCrashWrite,   kCrashCloexec,      kHygieneGuard,
        kHygieneUsing, kHygieneUnused,
    };
    return kIds;
}

void
lintFile(const SourceFile &f, const LintConfig &cfg,
         std::vector<Violation> *out)
{
    std::vector<Violation> found;
    std::vector<Suppression> sups = collectSuppressions(f, &found);

    if (cfg.applies(kDetRand, f.path))
        checkRand(f, &found);
    if (cfg.applies(kDetClock, f.path))
        checkClock(f, &found);
    if (cfg.applies(kDetUnordered, f.path))
        checkUnordered(f, &found);
    checkLayering(f, cfg, &found);
    if (cfg.applies(kCrashWrite, f.path))
        checkWrite(f, &found);
    if (cfg.applies(kCrashCloexec, f.path))
        checkCloexec(f, &found);
    if (cfg.applies(kHygieneGuard, f.path))
        checkHeaderGuard(f, &found);
    if (cfg.applies(kHygieneUsing, f.path))
        checkUsingNamespace(f, &found);

    // A suppression covers its own line and the line below it (the
    // "comment above the offending statement" idiom).
    std::vector<Violation> kept;
    for (const Violation &v : found) {
        bool suppressed = false;
        for (Suppression &s : sups) {
            if (s.rule == v.rule &&
                (s.line == v.line || s.line + 1 == v.line)) {
                s.used = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            kept.push_back(v);
    }
    for (const Suppression &s : sups)
        if (!s.used)
            kept.push_back({f.path, s.line, kHygieneUnused,
                            "suppression allow(" + s.rule +
                                ") matches no violation; remove it"});

    std::sort(kept.begin(), kept.end());
    out->insert(out->end(), kept.begin(), kept.end());
}

} // namespace wavedyn::lint
