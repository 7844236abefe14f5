#include "telemetry/logsink.hh"

#include <iostream>

#include "telemetry/telemetry.hh"

namespace wavedyn
{

SerializedLog &
SerializedLog::stderrLog()
{
    static SerializedLog *log = new SerializedLog(std::cerr);
    return *log;
}

void
SerializedLog::line(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mu);
    if (tickerOpen) {
        out_ << '\n';
        tickerOpen = false;
    }
    out_ << text << '\n';
    out_.flush();
}

bool
SerializedLog::ticker(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mu);
    std::uint64_t now = telemetryNowUs();
    if (lastTickUs != 0 && now - lastTickUs < kTickerIntervalUs)
        return false;
    lastTickUs = now;
    out_ << '\r' << text;
    out_.flush();
    tickerOpen = true;
    return true;
}

void
SerializedLog::tickerFinal(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mu);
    lastTickUs = 0;
    out_ << '\r' << text << '\n';
    out_.flush();
    tickerOpen = false;
}

} // namespace wavedyn
