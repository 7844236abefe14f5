/**
 * @file
 * wavedyn-lint driver: walk the tree, lex, run rules, report.
 *
 * The same entry points back the standalone `wavedyn_lint` binary
 * and the tests/lint/ CTest entry, so "what CI enforces" and "what a developer runs locally" cannot
 * drift apart. Output is deterministic: files are scanned in sorted
 * repo-relative order and violations print sorted by
 * (file, line, rule-id) as `file:line: rule-id: message`.
 */

#ifndef WAVEDYN_LINT_DRIVER_HH
#define WAVEDYN_LINT_DRIVER_HH

#include <string>
#include <vector>

#include "lint/config.hh"
#include "lint/rules.hh"

namespace wavedyn::lint
{

/** One linter invocation's outcome. */
struct LintResult
{
    std::vector<Violation> violations; //!< sorted (file, line, rule)
    std::size_t filesScanned = 0;
};

/**
 * True for files the scanner considers source: .cc/.cpp/.hh/.h/.hpp.
 */
bool isSourceFile(const std::string &path);

/**
 * Lint the configured tree: every source file under cfg.roots
 * (relative to @p repoRoot), minus cfg.exclude prefixes.
 * @throws std::runtime_error when a root is missing or unreadable —
 * a lint run that silently scans nothing must not pass.
 */
LintResult lintTree(const LintConfig &cfg, const std::string &repoRoot);

/**
 * Lint an explicit set of files and/or directories (repo-relative or
 * absolute paths under @p repoRoot). Scope and allowlists still apply,
 * as do cfg.exclude prefixes; non-source files are skipped.
 */
LintResult lintPaths(const LintConfig &cfg, const std::string &repoRoot,
                     const std::vector<std::string> &paths);

/**
 * Locate the repo root by walking up from @p startDir until a
 * directory containing @p marker (default lint.toml) is found.
 * Returns "" when no marker exists up to the filesystem root.
 */
std::string findRepoRoot(const std::string &startDir,
                         const std::string &marker = "lint.toml");

/**
 * Read @p repoRoot/lint.toml and parse it.
 * @throws std::runtime_error when the file is missing;
 * std::invalid_argument on parse errors.
 */
LintConfig loadRepoConfig(const std::string &repoRoot);

} // namespace wavedyn::lint

#endif // WAVEDYN_LINT_DRIVER_HH
