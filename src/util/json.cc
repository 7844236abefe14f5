#include "util/json.hh"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace wavedyn
{

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.ty = Type::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.ty = Type::Object;
    return v;
}

std::string
JsonValue::typeName() const
{
    switch (ty) {
      case Type::Null:
        return "null";
      case Type::Bool:
        return "boolean";
      case Type::Number:
        switch (nk) {
          case NumberKind::Double:
            return "number";
          case NumberKind::Int:
            return "integer";
          case NumberKind::Uint:
            return "unsigned integer";
        }
        return "number";
      case Type::String:
        return "string";
      case Type::Array:
        return "array";
      case Type::Object:
        return "object";
    }
    return "unknown";
}

namespace
{

[[noreturn]] void
typeError(const char *wanted, const JsonValue &v)
{
    throw std::logic_error(std::string("json: expected ") + wanted +
                           ", value is " + v.typeName());
}

} // anonymous namespace

bool
JsonValue::asBool() const
{
    if (ty != Type::Bool)
        typeError("boolean", *this);
    return boolean;
}

double
JsonValue::asDouble() const
{
    if (ty != Type::Number)
        typeError("number", *this);
    switch (nk) {
      case NumberKind::Double:
        return d;
      case NumberKind::Int:
        return static_cast<double>(i);
      case NumberKind::Uint:
        return static_cast<double>(u);
    }
    return d;
}

bool
JsonValue::fitsUint64() const
{
    if (ty != Type::Number)
        return false;
    switch (nk) {
      case NumberKind::Uint:
        return true;
      case NumberKind::Int:
        return i >= 0;
      case NumberKind::Double:
        // Exact non-negative integral doubles below 2^64 only; 2^64
        // itself rounds into range as a double, so compare in double
        // space against the largest double strictly below 2^64.
        return d >= 0.0 && d == std::floor(d) &&
               d <= 18446744073709549568.0;
    }
    return false;
}

std::uint64_t
JsonValue::asUint64() const
{
    if (!fitsUint64())
        typeError("unsigned integer", *this);
    switch (nk) {
      case NumberKind::Uint:
        return u;
      case NumberKind::Int:
        return static_cast<std::uint64_t>(i);
      case NumberKind::Double:
        return static_cast<std::uint64_t>(d);
    }
    return u;
}

bool
JsonValue::fitsInt64() const
{
    if (ty != Type::Number)
        return false;
    switch (nk) {
      case NumberKind::Int:
        return true;
      case NumberKind::Uint:
        return u <= static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max());
      case NumberKind::Double:
        return d == std::floor(d) && d >= -9223372036854775808.0 &&
               d <= 9223372036854774784.0;
    }
    return false;
}

std::int64_t
JsonValue::asInt64() const
{
    if (!fitsInt64())
        typeError("integer", *this);
    switch (nk) {
      case NumberKind::Int:
        return i;
      case NumberKind::Uint:
        return static_cast<std::int64_t>(u);
      case NumberKind::Double:
        return static_cast<std::int64_t>(d);
    }
    return i;
}

JsonValue::NumberKind
JsonValue::numberKind() const
{
    if (ty != Type::Number)
        typeError("number", *this);
    return nk;
}

const std::string &
JsonValue::asString() const
{
    if (ty != Type::String)
        typeError("string", *this);
    return str;
}

std::size_t
JsonValue::size() const
{
    if (ty == Type::Array)
        return arr.size();
    if (ty == Type::Object)
        return obj.size();
    typeError("array or object", *this);
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    if (ty != Type::Array)
        typeError("array", *this);
    if (i >= arr.size())
        throw std::out_of_range("json: array index " + std::to_string(i) +
                                " out of range (size " +
                                std::to_string(arr.size()) + ")");
    return arr[i];
}

JsonValue &
JsonValue::push(JsonValue v)
{
    if (ty == Type::Null)
        ty = Type::Array; // convenience: building onto a fresh value
    if (ty != Type::Array)
        typeError("array", *this);
    arr.push_back(std::move(v));
    return arr.back();
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (ty != Type::Object)
        typeError("object", *this);
    for (const auto &member : obj)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throw std::out_of_range("json: no member '" + key + "'");
    return *v;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue v)
{
    if (ty == Type::Null)
        ty = Type::Object;
    if (ty != Type::Object)
        typeError("object", *this);
    for (auto &member : obj) {
        if (member.first == key) {
            member.second = std::move(v);
            return member.second;
        }
    }
    obj.emplace_back(key, std::move(v));
    return obj.back().second;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (ty != Type::Object)
        typeError("object", *this);
    return obj;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (ty == Type::Number && other.ty == Type::Number) {
        // Compare exactly when both sides are integral; mixing in a
        // double falls back to double comparison (both spellings of
        // the same written value parse to the same double).
        bool su = fitsUint64(), ou = other.fitsUint64();
        bool si = fitsInt64(), oi = other.fitsInt64();
        if (su && ou)
            return asUint64() == other.asUint64();
        if (si && oi)
            return asInt64() == other.asInt64();
        if ((su || si) != (ou || oi))
            return false; // integral vs non-integral / out-of-range mix
        return asDouble() == other.asDouble();
    }
    if (ty != other.ty)
        return false;
    switch (ty) {
      case Type::Null:
        return true;
      case Type::Bool:
        return boolean == other.boolean;
      case Type::Number:
        return true; // handled above
      case Type::String:
        return str == other.str;
      case Type::Array:
        return arr == other.arr;
      case Type::Object:
        return obj == other.obj;
    }
    return false;
}

JsonParseError::JsonParseError(const std::string &what, std::size_t line,
                               std::size_t column)
    : std::runtime_error("json parse error at line " +
                         std::to_string(line) + ", column " +
                         std::to_string(column) + ": " + what),
      ln(line), col(column)
{
}

namespace
{

/** Recursive-descent parser over the whole input string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : in(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue(0);
        skipWhitespace();
        if (pos != in.size())
            fail("trailing content after the document");
        return v;
    }

  private:
    static constexpr std::size_t kMaxDepth = 128;

    const std::string &in;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        // Derive line/column from the byte offset on demand; errors
        // are rare, documents are small.
        std::size_t line = 1, col = 1;
        for (std::size_t k = 0; k < pos && k < in.size(); ++k) {
            if (in[k] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw JsonParseError(what, line, col);
    }

    bool atEnd() const { return pos >= in.size(); }

    char
    peek() const
    {
        if (atEnd())
            fail("unexpected end of input");
        return in[pos];
    }

    char
    take()
    {
        char c = peek();
        ++pos;
        return c;
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            char c = in[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos;
            else
                break;
        }
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n])
            ++n;
        if (in.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue
    parseValue(std::size_t depth)
    {
        if (depth > kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        skipWhitespace();
        char c = peek();
        switch (c) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            return JsonValue(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("invalid literal (expected 'true')");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("invalid literal (expected 'false')");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue(nullptr);
            fail("invalid literal (expected 'null')");
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    JsonValue
    parseObject(std::size_t depth)
    {
        expect('{');
        JsonValue v = JsonValue::object();
        skipWhitespace();
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected a string object key");
            std::string key = parseString();
            if (v.find(key))
                fail("duplicate object key \"" + key + "\"");
            skipWhitespace();
            expect(':');
            v.set(key, parseValue(depth + 1));
            skipWhitespace();
            char c = take();
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    parseArray(std::size_t depth)
    {
        expect('[');
        JsonValue v = JsonValue::array();
        skipWhitespace();
        if (peek() == ']') {
            ++pos;
            return v;
        }
        while (true) {
            v.push(parseValue(depth + 1));
            skipWhitespace();
            char c = take();
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    std::uint32_t
    parseHex4()
    {
        std::uint32_t v = 0;
        for (int k = 0; k < 4; ++k) {
            char c = take();
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = take();
            if (c == '"')
                return out;
            if (c == '\\') {
                char e = take();
                switch (e) {
                  case '"':
                    out.push_back('"');
                    break;
                  case '\\':
                    out.push_back('\\');
                    break;
                  case '/':
                    out.push_back('/');
                    break;
                  case 'b':
                    out.push_back('\b');
                    break;
                  case 'f':
                    out.push_back('\f');
                    break;
                  case 'n':
                    out.push_back('\n');
                    break;
                  case 'r':
                    out.push_back('\r');
                    break;
                  case 't':
                    out.push_back('\t');
                    break;
                  case 'u': {
                    std::uint32_t cp = parseHex4();
                    if (cp >= 0xd800 && cp <= 0xdbff) {
                        // High surrogate: a low surrogate must follow.
                        if (take() != '\\' || take() != 'u')
                            fail("unpaired high surrogate");
                        std::uint32_t lo = parseHex4();
                        if (lo < 0xdc00 || lo > 0xdfff)
                            fail("invalid low surrogate");
                        cp = 0x10000 + ((cp - 0xd800) << 10) +
                             (lo - 0xdc00);
                    } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                        fail("unpaired low surrogate");
                    }
                    appendUtf8(out, cp);
                    break;
                  }
                  default:
                    fail(std::string("invalid escape '\\") + e + "'");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            } else {
                out.push_back(c);
            }
        }
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = pos;
        bool negative = false;
        bool integral = true;
        if (peek() == '-') {
            negative = true;
            ++pos;
        }
        if (atEnd() || peek() < '0' || peek() > '9')
            fail("invalid number");
        if (peek() == '0') {
            ++pos;
            // JSON forbids leading zeros ("01"); a digit after the
            // zero is an error, not a second number.
            if (!atEnd() && in[pos] >= '0' && in[pos] <= '9')
                fail("leading zero in number");
        } else {
            while (!atEnd() && in[pos] >= '0' && in[pos] <= '9')
                ++pos;
        }
        if (!atEnd() && in[pos] == '.') {
            integral = false;
            ++pos;
            if (atEnd() || in[pos] < '0' || in[pos] > '9')
                fail("digit required after decimal point");
            while (!atEnd() && in[pos] >= '0' && in[pos] <= '9')
                ++pos;
        }
        if (!atEnd() && (in[pos] == 'e' || in[pos] == 'E')) {
            integral = false;
            ++pos;
            if (!atEnd() && (in[pos] == '+' || in[pos] == '-'))
                ++pos;
            if (atEnd() || in[pos] < '0' || in[pos] > '9')
                fail("digit required in exponent");
            while (!atEnd() && in[pos] >= '0' && in[pos] <= '9')
                ++pos;
        }
        std::string text = in.substr(start, pos - start);
        if (integral) {
            // Exact integer when it fits; overflow falls back to
            // double (losing precision, like every JSON reader).
            errno = 0;
            char *end = nullptr;
            if (!negative) {
                std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
                if (errno == 0 && end && *end == '\0')
                    return JsonValue(v);
            } else {
                std::int64_t v = std::strtoll(text.c_str(), &end, 10);
                if (errno == 0 && end && *end == '\0')
                    return JsonValue(v);
            }
        }
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (!end || *end != '\0' || !std::isfinite(v))
            fail("number out of range");
        return JsonValue(v);
    }
};

/** Shortest double spelling that strtod round-trips to the same bits. */
std::string
formatDouble(double v)
{
    // JSON has no NaN/Infinity literal; emitting one would produce a
    // document our own strict parser rejects. Fail at the writer,
    // where the producer can still see which value was bad.
    if (!std::isfinite(v))
        throw std::invalid_argument(
            "json: cannot write a non-finite number");
    // to_chars' shortest round-trip spelling has the fewest significant
    // digits any spelling can round-trip with, so no %g precision below
    // that count can: the search starts there.
    char buf[40];
    auto sci = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::scientific);
    int digits = 0;
    for (const char *c = buf; c != sci.ptr && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    for (int prec = digits; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    std::string out = buf;
    // Keep the output a JSON *number* the parser re-reads as a double:
    // an integral double must carry a decimal point or exponent, or it
    // re-parses as an integer literal.
    if (out.find_first_of(".eE") == std::string::npos)
        out += ".0";
    return out;
}

void
writeString(const std::string &s, std::string &out)
{
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c); // UTF-8 bytes pass through
            }
        }
    }
    out.push_back('"');
}

void
writeValue(const JsonValue &v, std::size_t indent, std::size_t depth,
           std::string &out)
{
    auto newline = [&](std::size_t level) {
        if (indent == 0)
            return;
        out.push_back('\n');
        out.append(indent * level, ' ');
    };

    switch (v.type()) {
      case JsonValue::Type::Null:
        out += "null";
        return;
      case JsonValue::Type::Bool:
        out += v.asBool() ? "true" : "false";
        return;
      case JsonValue::Type::Number:
        switch (v.numberKind()) {
          case JsonValue::NumberKind::Uint:
            out += std::to_string(v.asUint64());
            return;
          case JsonValue::NumberKind::Int:
            out += std::to_string(v.asInt64());
            return;
          case JsonValue::NumberKind::Double:
            out += formatDouble(v.asDouble());
            return;
        }
        return;
      case JsonValue::Type::String:
        writeString(v.asString(), out);
        return;
      case JsonValue::Type::Array: {
        if (v.size() == 0) {
            out += "[]";
            return;
        }
        out.push_back('[');
        for (std::size_t k = 0; k < v.size(); ++k) {
            if (k)
                out.push_back(',');
            newline(depth + 1);
            writeValue(v.at(k), indent, depth + 1, out);
        }
        newline(depth);
        out.push_back(']');
        return;
      }
      case JsonValue::Type::Object: {
        const auto &members = v.members();
        if (members.empty()) {
            out += "{}";
            return;
        }
        out.push_back('{');
        bool first = true;
        for (const auto &member : members) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            writeString(member.first, out);
            out.push_back(':');
            if (indent)
                out.push_back(' ');
            writeValue(member.second, indent, depth + 1, out);
        }
        newline(depth);
        out.push_back('}');
        return;
      }
    }
}

} // anonymous namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

std::string
writeJson(const JsonValue &value, std::size_t indent)
{
    std::string out;
    writeValue(value, indent, 0, out);
    return out;
}

} // namespace wavedyn
