/**
 * @file
 * Atomic publication of whole files: write to a unique temp name in
 * the destination directory, then rename() into place. POSIX makes
 * the rename atomic, so readers only ever observe either the old
 * complete file or the new complete file — never a torn write. The
 * result cache (cache/store.cc), CLI reports, predictor snapshots and
 * telemetry side files all publish through it.
 */

#ifndef WAVEDYN_UTIL_ATOMIC_FILE_HH
#define WAVEDYN_UTIL_ATOMIC_FILE_HH

#include <string>

namespace wavedyn
{

/**
 * Write @p bytes to @p path atomically: the contents go to a unique
 * temp file (".tmp.<pid>.<seq>" beside the destination, so rename()
 * never crosses a filesystem boundary and concurrent writers —
 * threads or processes — never share a temp name) and are published
 * with rename(). Returns false on any failure (unwritable directory,
 * full disk, rename error); the temp file is removed on the failure
 * paths that created one, and the destination is never left torn.
 * Thread-safe.
 */
bool writeFileAtomic(const std::string &path, const std::string &bytes);

} // namespace wavedyn

#endif // WAVEDYN_UTIL_ATOMIC_FILE_HH
