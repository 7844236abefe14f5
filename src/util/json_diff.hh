/**
 * @file
 * Structural comparison of JSON documents — the machinery behind
 * `wavedyn_cli diff`, for machine-readable report comparison
 * (ROADMAP: PR-4 follow-up).
 *
 * Semantics:
 *  - integers (Int/Uint), strings, booleans and nulls compare exactly;
 *  - doubles compare within a caller-set tolerance (|a - b| <=
 *    tol * max(1, |a|, |b|) — relative above 1, absolute below), so
 *    reports from different-but-equivalent runs can be accepted;
 *    a double never equals a non-number, and an integer-kind number
 *    compares exactly even against a double spelling of it when tol
 *    is 0;
 *  - objects compare member-by-member by key (order-insensitive:
 *    report sinks emit insertion-ordered members, but a reordered
 *    hand-edited spec is still the same document); missing and
 *    extra keys are reported;
 *  - arrays compare element-by-element; length mismatches are
 *    reported and the common prefix still compared.
 *
 * Every difference is reported with its field path ("a.b[3].c"), one
 * line per difference, capped so two wholly unrelated documents do
 * not produce megabytes of output.
 */

#ifndef WAVEDYN_UTIL_JSON_DIFF_HH
#define WAVEDYN_UTIL_JSON_DIFF_HH

#include <string>
#include <vector>

#include "util/json.hh"

namespace wavedyn
{

/** Options for jsonDiff. */
struct JsonDiffOptions
{
    /**
     * Tolerance for Double-kind numbers: values are equal when
     * |a - b| <= tol * max(1, |a|, |b|). 0 (default) demands exact
     * equality. Integer-kind numbers always compare exactly.
     */
    double tolerance = 0.0;

    /** Stop after this many reported differences. */
    std::size_t maxDifferences = 64;
};

/**
 * Compare two documents; returns one human-readable line per
 * difference (empty = equal under the options). Differences are
 * ordered by the first document's traversal order.
 */
std::vector<std::string> jsonDiff(const JsonValue &a, const JsonValue &b,
                                  const JsonDiffOptions &opts = {});

/** Outcome of diffing two files (see diffJsonFiles). */
struct JsonFileDiff
{
    std::vector<std::string> differences; //!< empty = equal
    bool samePath = false; //!< the two names are one file (short-circuit)
};

/**
 * Load, parse and compare two JSON files — the whole of
 * `wavedyn_cli diff` behind one testable call. When both names refer
 * to the same file (string-identical, or resolving to one inode — "a"
 * vs "./a"), the file is loaded and parsed ONCE and the structural
 * walk is skipped entirely: a document always equals itself, and
 * reparsing it was pure waste. Malformed input still errors in that
 * case — diff reports equality of documents, not of file names.
 *
 * @throws std::runtime_error when a file cannot be read;
 *         std::invalid_argument "path:line:col: ..." on a parse error.
 */
JsonFileDiff diffJsonFiles(const std::string &pathA,
                           const std::string &pathB,
                           const JsonDiffOptions &opts = {});

} // namespace wavedyn

#endif // WAVEDYN_UTIL_JSON_DIFF_HH
