/**
 * @file
 * Tests for the serialized stderr writer: ticker rate limiting with a
 * guaranteed final repaint, and banner lines never landing mid-ticker.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "telemetry/logsink.hh"

namespace wavedyn
{
namespace
{

TEST(SerializedLog, LineWritesImmediately)
{
    std::ostringstream out;
    SerializedLog log(out);
    log.line("hello");
    log.line("world");
    EXPECT_EQ(out.str(), "hello\nworld\n");
}

TEST(SerializedLog, TickerIsRateLimited)
{
    std::ostringstream out;
    SerializedLog log(out);
    EXPECT_TRUE(log.ticker("1/10"));
    // Immediately after a repaint, further repaints are dropped.
    EXPECT_FALSE(log.ticker("2/10"));
    EXPECT_FALSE(log.ticker("3/10"));
    EXPECT_EQ(out.str(), "\r1/10");
}

TEST(SerializedLog, FinalTickerAlwaysLands)
{
    std::ostringstream out;
    SerializedLog log(out);
    log.ticker("1/10");
    log.ticker("5/10"); // dropped by the rate limit
    log.tickerFinal("10/10");
    EXPECT_EQ(out.str(), "\r1/10\r10/10\n");
}

TEST(SerializedLog, LineTerminatesOpenTicker)
{
    // A banner while a '\r' repaint is on screen must start on a
    // fresh line, not append to the repaint.
    std::ostringstream out;
    SerializedLog log(out);
    log.ticker("3/10");
    log.line("-- phase done");
    EXPECT_EQ(out.str(), "\r3/10\n-- phase done\n");
}

} // namespace
} // namespace wavedyn
