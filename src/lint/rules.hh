/**
 * @file
 * The wavedyn-lint rule catalog.
 *
 * Each rule enforces one load-bearing repo invariant at the source
 * level, so violations are caught on the PR that introduces them
 * instead of by a runtime golden test after they ship:
 *
 *  determinism-rand        ban rand()/srand()/random_device & friends —
 *                          every random stream must come from util/rng
 *                          (counter-based, seed-addressable), or reports
 *                          stop being byte-identical across runs.
 *  determinism-clock       ban wall/monotonic clock reads outside the
 *                          allowlisted observation surfaces (telemetry,
 *                          cache GC, scheduler ticker) — simulated
 *                          results must never
 *                          depend on when they were computed.
 *  determinism-unordered   ban std::unordered_{map,set,multimap,
 *                          multiset} in byte-stable output code
 *                          (serialization, reports, merges): hash
 *                          iteration order would feed output bytes.
 *  layering                the module include DAG: a src/ module may
 *                          include itself, its layer peers and lower
 *                          layers only (ranks in lint.toml).
 *  layering-unknown-module a src/ module missing from the layering
 *                          table — new subsystems must be classified.
 *  layering-telemetry      telemetry observes, never participates: it
 *                          may include only util (and itself).
 *  crash-safety-write      direct std::ofstream/fopen/freopen writes
 *                          outside util/atomic_file — final files must
 *                          be published with writeFileAtomic so readers
 *                          never observe a torn document.
 *  crash-safety-cloexec    open()/openat() calls passing O_* flags must
 *                          pass O_CLOEXEC — a descriptor opened without
 *                          it leaks into every process the host program
 *                          later spawns.
 *  hygiene-header-guard    every header starts with an include guard
 *                          or #pragma once.
 *  hygiene-using-namespace `using namespace std` in a header poisons
 *                          every includer.
 *  hygiene-unused-suppression an inline allow() that suppressed
 *                          nothing — stale exemptions must not
 *                          accumulate.
 *
 * Intentional exceptions are written inline on the offending line or
 * the line above it, as a comment containing the marker wavedyn-lint:
 * followed by allow(rule-id[, rule-id...]) — or as path prefixes in
 * lint.toml's per-rule allow lists. Both forms are reviewable diffs.
 */

#ifndef WAVEDYN_LINT_RULES_HH
#define WAVEDYN_LINT_RULES_HH

#include <cstddef>
#include <string>
#include <vector>

#include "lint/config.hh"
#include "lint/lexer.hh"

namespace wavedyn::lint
{

/** One finding, printed as "file:line: rule-id: message". */
struct Violation
{
    std::string file;
    std::size_t line = 0; //!< 1-based
    std::string rule;
    std::string message;
};

/** Stable order: by file, then line, then rule-id. */
bool operator<(const Violation &a, const Violation &b);

/** "file:line: rule-id: message" (clickable in editors and CI logs). */
std::string formatViolation(const Violation &v);

/** Every rule-id, in catalog order. */
const std::vector<std::string> &allRuleIds();

/**
 * Run every applicable rule over one lexed file and append the
 * surviving violations (inline suppressions already applied, unused
 * suppressions reported) to @p out.
 */
void lintFile(const SourceFile &file, const LintConfig &cfg,
              std::vector<Violation> *out);

} // namespace wavedyn::lint

#endif // WAVEDYN_LINT_RULES_HH
