#include "util/json_diff.hh"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace wavedyn
{

namespace
{

/** Compact single-line rendering of a value for difference messages. */
std::string
show(const JsonValue &v)
{
    // The writer refuses non-finite numbers (JSON cannot express
    // them); they can still reach a diff of programmatically built
    // documents and must render rather than throw.
    if (v.isNumber() &&
        v.numberKind() == JsonValue::NumberKind::Double &&
        !std::isfinite(v.asDouble()))
        return std::to_string(v.asDouble());
    std::string s = writeJson(v, 0);
    constexpr std::size_t cap = 60;
    if (s.size() > cap)
        s = s.substr(0, cap - 3) + "...";
    return s;
}

struct Differ
{
    const JsonDiffOptions &opts;
    std::vector<std::string> out;
    bool truncated = false;

    bool
    report(const std::string &path, const std::string &msg)
    {
        if (out.size() >= opts.maxDifferences) {
            if (!truncated) {
                out.push_back("... (further differences suppressed)");
                truncated = true;
            }
            return false;
        }
        out.push_back((path.empty() ? std::string("$") : path) + ": " +
                      msg);
        return true;
    }

    bool full() const { return truncated; }

    /** Double comparison under the tolerance (see header). */
    bool
    doublesEqual(double a, double b) const
    {
        if (a == b)
            return true;
        if (std::isnan(a) || std::isnan(b))
            return false; // a NaN in a report is itself a difference
        double scale = std::max(1.0, std::max(std::fabs(a),
                                              std::fabs(b)));
        return std::fabs(a - b) <= opts.tolerance * scale;
    }

    void
    compareNumbers(const std::string &path, const JsonValue &a,
                   const JsonValue &b)
    {
        bool aInt = a.numberKind() != JsonValue::NumberKind::Double;
        bool bInt = b.numberKind() != JsonValue::NumberKind::Double;
        if (aInt && bInt) {
            // Exact integer comparison, sign-aware across Int/Uint.
            if (a != b)
                report(path, show(a) + " != " + show(b));
            return;
        }
        if (aInt != bInt) {
            // Mixed spelling (one side integer literal, one double):
            // exact equality unless a tolerance was requested.
            if (opts.tolerance <= 0.0 ? a != b
                                      : !doublesEqual(a.asDouble(),
                                                      b.asDouble()))
                report(path, show(a) + " != " + show(b));
            return;
        }
        if (!doublesEqual(a.asDouble(), b.asDouble()))
            report(path, show(a) + " != " + show(b) +
                             (opts.tolerance > 0.0
                                  ? " (tol " +
                                        std::to_string(opts.tolerance) +
                                        ")"
                                  : ""));
    }

    void
    compare(const std::string &path, const JsonValue &a,
            const JsonValue &b)
    {
        if (full())
            return;
        if (a.type() != b.type()) {
            report(path, a.typeName() + " vs " + b.typeName());
            return;
        }
        switch (a.type()) {
          case JsonValue::Type::Null:
            return;
          case JsonValue::Type::Bool:
          case JsonValue::Type::String:
            if (a != b)
                report(path, show(a) + " != " + show(b));
            return;
          case JsonValue::Type::Number:
            compareNumbers(path, a, b);
            return;
          case JsonValue::Type::Array: {
            if (a.size() != b.size() &&
                !report(path, "array length " +
                                  std::to_string(a.size()) + " vs " +
                                  std::to_string(b.size())))
                return;
            std::size_t n = std::min(a.size(), b.size());
            for (std::size_t i = 0; i < n && !full(); ++i) {
                std::ostringstream p;
                p << path << "[" << i << "]";
                compare(p.str(), a.at(i), b.at(i));
            }
            return;
          }
          case JsonValue::Type::Object: {
            for (const auto &m : a.members()) {
                if (full())
                    return;
                const JsonValue *other = b.find(m.first);
                if (!other) {
                    report(path, "key '" + m.first +
                                     "' only in first document");
                    continue;
                }
                std::string child =
                    path.empty() ? m.first : path + "." + m.first;
                compare(child, m.second, *other);
            }
            for (const auto &m : b.members()) {
                if (full())
                    return;
                if (!a.find(m.first))
                    report(path, "key '" + m.first +
                                     "' only in second document");
            }
            return;
          }
        }
    }
};

} // anonymous namespace

std::vector<std::string>
jsonDiff(const JsonValue &a, const JsonValue &b,
         const JsonDiffOptions &opts)
{
    Differ d{opts, {}, false};
    d.compare("", a, b);
    return std::move(d.out);
}

namespace
{

JsonValue
loadJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return parseJson(text.str());
    } catch (const JsonParseError &e) {
        throw std::invalid_argument(path + ":" +
                                    std::to_string(e.line()) + ":" +
                                    std::to_string(e.column()) + ": " +
                                    e.what());
    }
}

/** Do the two names denote one file? ("a.json" vs "./a.json" too.) */
bool
sameFile(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    std::error_code ec;
    bool eq = std::filesystem::equivalent(a, b, ec);
    return !ec && eq;
}

} // anonymous namespace

JsonFileDiff
diffJsonFiles(const std::string &pathA, const std::string &pathB,
              const JsonDiffOptions &opts)
{
    JsonFileDiff result;
    if (sameFile(pathA, pathB)) {
        // One read, one parse, no walk — but still validate: the
        // short-circuit must not silently bless a malformed file.
        loadJsonFile(pathA);
        result.samePath = true;
        return result;
    }
    JsonValue a = loadJsonFile(pathA);
    JsonValue b = loadJsonFile(pathB);
    result.differences = jsonDiff(a, b, opts);
    return result;
}

} // namespace wavedyn
