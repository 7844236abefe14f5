/**
 * @file
 * Tests for the dependency-free JSON value type, parser and writer:
 * exact 64-bit integer round-trips (campaign seeds), shortest-form
 * double output, deterministic member order, and precise line/column
 * parse errors — the properties campaign specs rely on.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hh"
#include "util/rng.hh"

namespace wavedyn
{
namespace
{

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_EQ(parseJson("true").asBool(), true);
    EXPECT_EQ(parseJson("false").asBool(), false);
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseJson("42").asUint64(), 42u);
    EXPECT_EQ(parseJson("-7").asInt64(), -7);
    EXPECT_DOUBLE_EQ(parseJson("2.5").asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(parseJson("1e3").asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(parseJson("-0.125").asDouble(), -0.125);
}

TEST(Json, IntegerLiteralsStayExact)
{
    // uint64 max would lose 11 bits as a double.
    const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
    JsonValue v = parseJson("18446744073709551615");
    ASSERT_TRUE(v.fitsUint64());
    EXPECT_EQ(v.asUint64(), big);
    EXPECT_EQ(writeJson(v), "18446744073709551615");

    JsonValue neg = parseJson("-9223372036854775808");
    ASSERT_TRUE(neg.fitsInt64());
    EXPECT_EQ(neg.asInt64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(writeJson(neg), "-9223372036854775808");
}

TEST(Json, IntegerOverflowFallsBackToDouble)
{
    JsonValue v = parseJson("18446744073709551616"); // 2^64
    ASSERT_TRUE(v.isNumber());
    EXPECT_EQ(v.numberKind(), JsonValue::NumberKind::Double);
    EXPECT_DOUBLE_EQ(v.asDouble(), 18446744073709551616.0);
}

TEST(Json, NumbersCompareByValueAcrossKinds)
{
    EXPECT_EQ(parseJson("1"), JsonValue(1.0));
    EXPECT_EQ(parseJson("-1"), JsonValue(std::int64_t{-1}));
    EXPECT_NE(parseJson("1"), parseJson("2"));
    EXPECT_NE(parseJson("0.5"), parseJson("1"));
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseJson(R"("a\"b\\c\nd\te")").asString(),
              "a\"b\\c\nd\te");
    // A = 'A'; é = é (2-byte UTF-8).
    EXPECT_EQ(parseJson(R"("A")").asString(), "A");
    EXPECT_EQ(parseJson(R"("é")").asString(), "\xc3\xa9");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parseJson(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
    // Control characters are escaped on the way out.
    EXPECT_EQ(writeJson(JsonValue(std::string("a\nb\x01"))),
              "\"a\\nb\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrderAndRejectDuplicates)
{
    JsonValue v = parseJson(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");
    EXPECT_EQ(v.at("a").asUint64(), 2u);
    EXPECT_EQ(v.find("missing"), nullptr);

    EXPECT_THROW(parseJson(R"({"k": 1, "k": 2})"), JsonParseError);
}

TEST(Json, NestedDocumentRoundTrips)
{
    const std::string text = R"({
  "kind": "suite",
  "sizes": [10, 4, 16],
  "nested": {"enabled": false, "ratio": 0.25, "label": null}
})";
    JsonValue v = parseJson(text);
    // write -> parse -> compare structurally, pretty and compact.
    EXPECT_EQ(parseJson(writeJson(v, 2)), v);
    EXPECT_EQ(parseJson(writeJson(v, 0)), v);
    // The writer itself is deterministic.
    EXPECT_EQ(writeJson(v), writeJson(parseJson(writeJson(v))));
}

TEST(Json, WriterFormatsArePinned)
{
    JsonValue v = JsonValue::object();
    v.set("name", "x");
    v.set("count", std::uint64_t{3});
    JsonValue &levels = v.set("levels", JsonValue::array());
    levels.push(std::uint64_t{1});
    levels.push(2.5);
    EXPECT_EQ(writeJson(v, 0), R"({"name":"x","count":3,"levels":[1,2.5]})");
    EXPECT_EQ(writeJson(v, 2),
              "{\n  \"name\": \"x\",\n  \"count\": 3,\n"
              "  \"levels\": [\n    1,\n    2.5\n  ]\n}");
}

TEST(Json, DoublesUseShortestRoundTrippingForm)
{
    EXPECT_EQ(writeJson(JsonValue(0.1)), "0.1");
    EXPECT_EQ(writeJson(JsonValue(0.25)), "0.25");
    EXPECT_EQ(writeJson(JsonValue(1e-9)), "1e-09");
    // An integral double stays a double on re-parse (trailing ".0").
    EXPECT_EQ(writeJson(JsonValue(4.0)), "4.0");
    EXPECT_EQ(parseJson(writeJson(JsonValue(4.0))).numberKind(),
              JsonValue::NumberKind::Double);
    // Shortest form still round-trips exactly.
    for (double d : {0.1, 1.0 / 3.0, 6.02214076e23, -0.0, 123.456}) {
        JsonValue back = parseJson(writeJson(JsonValue(d)));
        EXPECT_EQ(back.asDouble(), d);
    }
}

/**
 * The writer's original double spelling: try every %g precision from
 * 1 up and keep the first that strtod reads back to the same bits.
 * Kept here as the oracle the writer's shortcut must match.
 */
std::string
searchedSpelling(double v)
{
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    std::string out = buf;
    if (out.find_first_of(".eE") == std::string::npos)
        out += ".0";
    return out;
}

double
fromBits(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

TEST(Json, DoubleSpellingMatchesPrecisionSearch)
{
    // Cache keys and spec dumps hash these bytes, so the writer must
    // spell every finite double exactly as the full search does.
    std::vector<double> values = {
        0.0,     std::numeric_limits<double>::denorm_min(),
        DBL_MIN, DBL_MAX,
        1e-5,    1e-4,
        1e16,    1e17,
        1e21,    1e22,
        0.1,     1.0 / 3.0,
        6.02214076e23,
    };
    // Every binade: its first value, its neighbours and a few interior
    // mantissas.
    for (int e = -1074; e <= 1023; ++e) {
        double p = std::ldexp(1.0, e);
        for (double m : {1.0, 1.1, 1.5, 1.9999999999999998})
            values.push_back(p * m);
        values.push_back(std::nextafter(p, 0.0));
        values.push_back(std::nextafter(p, DBL_MAX));
    }
    // Integers, short decimals and small ratios: what specs hold.
    for (int i = 0; i <= 200000; ++i)
        values.push_back(static_cast<double>(i));
    for (int i = 1; i <= 100000; ++i)
        values.push_back(i / 1000.0);
    for (int i = 1; i <= 200; ++i)
        for (int j = 1; j <= 200; ++j)
            values.push_back(static_cast<double>(i) / j);
    for (std::size_t i = 0, n = values.size(); i < n; ++i)
        values.push_back(-values[i]);
    // Random bit patterns (either sign) stand for the full-precision
    // doubles of generated profiles; non-finite ones are skipped.
    Rng rng(2024);
    while (values.size() < 1000000) {
        double v = fromBits(rng.next());
        if (std::isfinite(v))
            values.push_back(v);
    }

    // The search costs up to 17 printf/strtod pairs per value: split
    // the values over a few threads, report on the test thread.
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::string>> bad(kThreads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < values.size(); i += kThreads) {
                std::string want = searchedSpelling(values[i]);
                std::string got = writeJson(JsonValue(values[i]));
                if (got != want)
                    bad[t].push_back(want + " became " + got);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (const auto &b : bad)
        EXPECT_TRUE(b.empty()) << b.size() << " changed, first: " << b[0];
}

TEST(Json, WriterRejectsNonFiniteNumbers)
{
    // JSON has no NaN/Infinity literal; writing one would produce a
    // document the strict parser rejects, so the writer throws.
    for (double bad : {std::nan(""),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(writeJson(JsonValue(bad)), std::invalid_argument);
        JsonValue doc = JsonValue::object();
        doc.set("x", bad);
        EXPECT_THROW(writeJson(doc), std::invalid_argument);
    }
}

TEST(Json, ParseErrorsCarryLineAndColumn)
{
    try {
        parseJson("{\n  \"a\": 1,\n  \"b\": }\n}");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_EQ(e.line(), 3u);
        EXPECT_EQ(e.column(), 8u);
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), JsonParseError);
    EXPECT_THROW(parseJson("{"), JsonParseError);
    EXPECT_THROW(parseJson("[1, 2,]"), JsonParseError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), JsonParseError);
    EXPECT_THROW(parseJson("nul"), JsonParseError);
    EXPECT_THROW(parseJson("01"), JsonParseError);
    EXPECT_THROW(parseJson("1."), JsonParseError);
    EXPECT_THROW(parseJson("1e"), JsonParseError);
    EXPECT_THROW(parseJson("\"unterminated"), JsonParseError);
    EXPECT_THROW(parseJson("\"bad \\q escape\""), JsonParseError);
    EXPECT_THROW(parseJson(R"("\ud83d alone")"), JsonParseError);
    EXPECT_THROW(parseJson("{} extra"), JsonParseError);
    EXPECT_THROW(parseJson("1 2"), JsonParseError);
}

TEST(Json, RejectsExcessiveNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_THROW(parseJson(deep), JsonParseError);
    // 100 levels is fine.
    std::string ok(100, '[');
    ok += "1";
    ok += std::string(100, ']');
    EXPECT_NO_THROW(parseJson(ok));
}

TEST(Json, AccessorsGuardTypes)
{
    EXPECT_THROW(parseJson("1").asString(), std::logic_error);
    EXPECT_THROW(parseJson("\"x\"").asDouble(), std::logic_error);
    EXPECT_THROW(parseJson("[1]").at("k"), std::logic_error);
    EXPECT_THROW(parseJson("{}").at(0), std::logic_error);
    EXPECT_THROW(parseJson("[1]").at(3), std::out_of_range);
    EXPECT_THROW(parseJson("{}").at("k"), std::out_of_range);
    EXPECT_THROW(parseJson("-1").asUint64(), std::logic_error);
    EXPECT_THROW(parseJson("0.5").asUint64(), std::logic_error);
}

} // anonymous namespace
} // namespace wavedyn
