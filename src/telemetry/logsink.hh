/**
 * @file
 * Serialized stderr writing: one mutex-guarded writer shared by
 * orchestration-thread phase banners and worker-thread progress
 * tickers.
 *
 * Two log producers used to write to std::cerr independently — the
 * phase banner from the orchestration thread and the `\r` run ticker
 * from whichever worker finished a run — which interleaves mid-line
 * at high --jobs. SerializedLog routes both through one mutex and
 * rate-limits the ticker (at most ~10 repaints/sec; the final
 * done == total repaint always lands) so logs stay readable.
 *
 * These are stderr-only facilities: nothing here may ever write to
 * stdout, where reports must stay byte-identical (see telemetry.hh).
 */

#ifndef WAVEDYN_TELEMETRY_LOGSINK_HH
#define WAVEDYN_TELEMETRY_LOGSINK_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

namespace wavedyn
{

class SerializedLog
{
  public:
    /** Minimum microseconds between ticker repaints (~10/sec). */
    static constexpr std::uint64_t kTickerIntervalUs = 100000;

    explicit SerializedLog(std::ostream &out) : out_(out) {}

    /** The process-wide writer over std::cerr. */
    static SerializedLog &stderrLog();

    /** Write one complete line immediately (no rate limit). A ticker
     *  repaint in progress is terminated with '\n' first so the line
     *  never lands mid-ticker. */
    void line(const std::string &text);

    /**
     * Repaint a single-line ticker ("\r" + text, no newline).
     * Dropped when the previous repaint was under kTickerIntervalUs
     * ago — callers just call it per event and let the writer decide.
     * Returns true when the repaint was written.
     */
    bool ticker(const std::string &text);

    /** Final ticker state: always written, terminated with '\n'. */
    void tickerFinal(const std::string &text);

  private:
    std::mutex mu;
    std::ostream &out_;
    std::uint64_t lastTickUs = 0;
    bool tickerOpen = false; //!< a '\r' line is on screen, no '\n' yet
};

} // namespace wavedyn

#endif // WAVEDYN_TELEMETRY_LOGSINK_HH
