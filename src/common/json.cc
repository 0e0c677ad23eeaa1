#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/logging.hh"

namespace gopim::json {

namespace {

/**
 * Output bytes dump()/canonical() reserve up front: a cache key's
 * canonical config (about 1 KB) and most responses fit without a
 * regrowth.
 */
constexpr size_t kWriterReserve = 2048;

/** Members an object reserves on its first set(). */
constexpr size_t kMemberReserve = 8;

} // namespace

/**
 * The one JSON writer behind dump(), canonical(), dumpIndented() and
 * escape(). It appends to `out` through a cursor: the string grows
 * geometrically and each token costs one capacity check and a
 * direct store, so writing allocates nothing beyond the output.
 * Strings escape in place, numbers go through std::to_chars, and with
 * sortKeys each object's members are ordered through an index of
 * pointers on the stack. The destructor trims `out` to the bytes
 * written. indent < 0 writes compact.
 */
class Writer
{
  public:
    Writer(std::string &out, int indent, bool sortKeys)
        : out_(out), used_(out.size()), indent_(indent),
          sortKeys_(sortKeys)
    {
    }
    ~Writer() { out_.resize(used_); }
    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    void
    value(const Value &v, int depth)
    {
        switch (v.kind()) {
          case Value::Kind::Null:
            put("null");
            break;
          case Value::Kind::Bool:
            put(v.get<Value::Kind::Bool>() ? "true" : "false");
            break;
          case Value::Kind::Int:
            number(v.get<Value::Kind::Int>());
            break;
          case Value::Kind::Double:
            if (const double d = v.get<Value::Kind::Double>();
                std::isfinite(d))
                number(d);
            else
                put("null");
            break;
          case Value::Kind::String:
            put('"');
            escaped(v.get<Value::Kind::String>());
            put('"');
            break;
          case Value::Kind::Array:
            array(v.get<Value::Kind::Array>());
            break;
          case Value::Kind::Object:
            object(v.get<Value::Kind::Object>(), depth);
            break;
          case Value::Kind::Raw:
            put(v.get<Value::Kind::Raw>());
            break;
        }
    }

    /**
     * The escaped content of a string literal: '"' and '\\' get a
     * backslash, \n \r \t their names, every other byte below 0x20
     * \u00XX, and every other byte (DEL and multi-byte UTF-8
     * included) is copied raw.
     */
    void
    escaped(std::string_view s)
    {
        static constexpr char kHex[] = "0123456789abcdef";
        char *p = room(6 * s.size());
        for (const char c : s) {
            const auto ch = static_cast<unsigned char>(c);
            if (ch >= 0x20 && ch != '"' && ch != '\\') {
                *p++ = c;
                continue;
            }
            *p++ = '\\';
            switch (ch) {
              case '"':
              case '\\':
                *p++ = c;
                break;
              case '\n':
                *p++ = 'n';
                break;
              case '\r':
                *p++ = 'r';
                break;
              case '\t':
                *p++ = 't';
                break;
              default:
                *p++ = 'u';
                *p++ = '0';
                *p++ = '0';
                *p++ = kHex[ch >> 4];
                *p++ = kHex[ch & 0xf];
            }
        }
        used_ = static_cast<size_t>(p - out_.data());
    }

  private:
    using Member = Value::Member;

    /** Objects wider than this sort through a heap index. */
    static constexpr size_t kStackMembers = 32;

    /**
     * std::string's operator< (bytewise as unsigned char, then
     * shorter first), inlined: sibling keys mostly differ in their
     * first bytes, so this skips the out-of-line compare call.
     */
    static bool
    keyLess(const std::string &a, const std::string &b)
    {
        const size_t n = std::min(a.size(), b.size());
        for (size_t i = 0; i < n; ++i)
            if (a[i] != b[i])
                return static_cast<unsigned char>(a[i]) <
                       static_cast<unsigned char>(b[i]);
        return a.size() < b.size();
    }

    /** Room for `n` more bytes at the cursor. */
    char *
    room(size_t n)
    {
        if (out_.size() - used_ < n)
            out_.resize(std::max(
                {used_ + n, 2 * out_.size(), out_.capacity()}));
        return out_.data() + used_;
    }

    void
    put(char c)
    {
        *room(1) = c;
        ++used_;
    }

    void
    put(std::string_view s)
    {
        std::memcpy(room(s.size()), s.data(), s.size());
        used_ += s.size();
    }

    /** Shortest round-trip form, written at the cursor. */
    template <typename T>
    void
    number(T v)
    {
        constexpr size_t kMaxChars = 32;
        char *p = room(kMaxChars);
        used_ = static_cast<size_t>(
            std::to_chars(p, p + kMaxChars, v).ptr - out_.data());
    }

    /**
     * Arrays stay inline even in pretty mode, elements compact:
     * result vectors are short and read better as one row.
     */
    void
    array(const std::vector<Value> &items)
    {
        const int indent = indent_;
        indent_ = -1;
        put('[');
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                put(indent >= 0 ? ", " : ",");
            value(items[i], 0);
        }
        put(']');
        indent_ = indent;
    }

    void
    newline(int depth)
    {
        const size_t n = static_cast<size_t>(indent_ + 2 * depth);
        char *p = room(n + 1);
        *p = '\n';
        std::memset(p + 1, ' ', n);
        used_ += n + 1;
    }

    void
    member(const Member &m, bool first, int depth)
    {
        if (!first)
            put(',');
        if (indent_ >= 0)
            newline(depth + 1);
        put('"');
        escaped(m.first);
        put(indent_ >= 0 ? "\": " : "\":");
        value(m.second, depth + 1);
    }

    void
    object(const std::vector<Member> &members, int depth)
    {
        const size_t count = members.size();
        put('{');
        if (sortKeys_) {
            const Member *stackOrder[kStackMembers];
            std::unique_ptr<const Member *[]> heapOrder;
            if (count > kStackMembers)
                heapOrder = std::make_unique<const Member *[]>(count);
            const Member **order =
                heapOrder ? heapOrder.get() : stackOrder;
            for (size_t i = 0; i < count; ++i)
                order[i] = &members[i];
            std::sort(order, order + count,
                      [](const Member *a, const Member *b) {
                          return keyLess(a->first, b->first);
                      });
            for (size_t i = 0; i < count; ++i)
                member(*order[i], i == 0, depth);
        } else {
            for (size_t i = 0; i < count; ++i)
                member(members[i], i == 0, depth);
        }
        if (indent_ >= 0 && count)
            newline(depth);
        put('}');
    }

    std::string &out_;
    size_t used_;
    int indent_;
    const bool sortKeys_;
};

std::string
escape(std::string_view s)
{
    std::string out;
    Writer(out, -1, false).escaped(s);
    return out;
}

bool
Value::asBool() const
{
    GOPIM_ASSERT(isBool(), "json value is not a bool");
    return get<Kind::Bool>();
}

int64_t
Value::asInt() const
{
    if (isInt())
        return get<Kind::Int>();
    GOPIM_ASSERT(kind() == Kind::Double &&
                     get<Kind::Double>() ==
                         std::floor(get<Kind::Double>()),
                 "json value is not an integer");
    return static_cast<int64_t>(get<Kind::Double>());
}

double
Value::asDouble() const
{
    if (isInt())
        return static_cast<double>(get<Kind::Int>());
    GOPIM_ASSERT(kind() == Kind::Double, "json value is not a number");
    return get<Kind::Double>();
}

const std::string &
Value::asString() const
{
    GOPIM_ASSERT(isString(), "json value is not a string");
    return get<Kind::String>();
}

void
Value::push(Value v)
{
    GOPIM_ASSERT(isArray(), "push on non-array json value");
    get<Kind::Array>().push_back(std::move(v));
}

size_t
Value::size() const
{
    if (isArray())
        return get<Kind::Array>().size();
    GOPIM_ASSERT(isObject(), "size of non-container");
    return get<Kind::Object>().size();
}

const Value &
Value::at(size_t index) const
{
    GOPIM_ASSERT(isArray() && index < get<Kind::Array>().size(),
                 "json array index out of range");
    return get<Kind::Array>()[index];
}

const std::vector<Value> &
Value::items() const
{
    GOPIM_ASSERT(isArray(), "items of non-array");
    return get<Kind::Array>();
}

Value &
Value::set(std::string key, Value v)
{
    GOPIM_ASSERT(isObject(), "set on non-object json value");
    auto &members = get<Kind::Object>();
    for (auto &member : members) {
        if (member.first == key) {
            member.second = std::move(v);
            return member.second;
        }
    }
    if (members.empty())
        members.reserve(kMemberReserve);
    members.emplace_back(std::move(key), std::move(v));
    return members.back().second;
}

const Value *
Value::find(const std::string &key) const
{
    GOPIM_ASSERT(isObject(), "find on non-object json value");
    for (const auto &member : get<Kind::Object>())
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    GOPIM_ASSERT(isObject(), "members of non-object");
    return get<Kind::Object>();
}

std::string
Value::dump() const
{
    std::string out;
    out.reserve(kWriterReserve);
    Writer(out, -1, false).value(*this, 0);
    return out;
}

std::string
Value::dumpIndented(int indent) const
{
    std::string out(static_cast<size_t>(indent), ' ');
    out.reserve(kWriterReserve);
    Writer(out, indent, false).value(*this, 0);
    return out;
}

std::string
Value::canonical() const
{
    std::string out;
    out.reserve(kWriterReserve);
    Writer(out, -1, true).value(*this, 0);
    return out;
}

namespace {

/** Recursive-descent parser over a complete document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parseDocument(Value *out)
    {
        skipWhitespace();
        if (!parseValue(out))
            return false;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char ch)
    {
        if (pos_ < text_.size() && text_[pos_] == ch) {
            ++pos_;
            return true;
        }
        return fail(std::string("expected '") + ch + "'");
    }

    bool
    literal(const char *word, Value v, Value *out)
    {
        const size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("invalid literal (expected ") +
                        word + ")");
        pos_ += len;
        *out = std::move(v);
        return true;
    }

    bool
    parseValue(Value *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
            return nested(&Parser::parseObject, out);
          case '[':
            return nested(&Parser::parseArray, out);
          case '"':
            return parseString(out);
          case 't':
            return literal("true", Value(true), out);
          case 'f':
            return literal("false", Value(false), out);
          case 'n':
            return literal("null", Value(nullptr), out);
          default:
            return parseNumber(out);
        }
    }

    /** One container level deeper, refused past kMaxParseDepth. */
    bool
    nested(bool (Parser::*parse)(Value *), Value *out)
    {
        if (depth_ == kMaxParseDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxParseDepth));
        ++depth_;
        const bool ok = (this->*parse)(out);
        --depth_;
        return ok;
    }

    bool
    parseObject(Value *out)
    {
        if (!consume('{'))
            return false;
        Value obj = Value::object();
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            *out = std::move(obj);
            return true;
        }
        while (true) {
            skipWhitespace();
            Value key;
            if (!parseString(&key))
                return fail("object key must be a string");
            skipWhitespace();
            if (!consume(':'))
                return false;
            skipWhitespace();
            Value member;
            if (!parseValue(&member))
                return false;
            obj.set(key.asString(), std::move(member));
            skipWhitespace();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (!consume('}'))
                return false;
            *out = std::move(obj);
            return true;
        }
    }

    bool
    parseArray(Value *out)
    {
        if (!consume('['))
            return false;
        Value arr = Value::array();
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            *out = std::move(arr);
            return true;
        }
        while (true) {
            skipWhitespace();
            Value element;
            if (!parseValue(&element))
                return false;
            arr.push(std::move(element));
            skipWhitespace();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (!consume(']'))
                return false;
            *out = std::move(arr);
            return true;
        }
    }

    bool
    appendCodepoint(uint32_t cp, std::string &s)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xc0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xe0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            s += static_cast<char>(0xf0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        }
        return true;
    }

    bool
    parseHex4(uint32_t *out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char ch = text_[pos_++];
            cp <<= 4;
            if (ch >= '0' && ch <= '9')
                cp |= static_cast<uint32_t>(ch - '0');
            else if (ch >= 'a' && ch <= 'f')
                cp |= static_cast<uint32_t>(ch - 'a' + 10);
            else if (ch >= 'A' && ch <= 'F')
                cp |= static_cast<uint32_t>(ch - 'A' + 10);
            else
                return fail("invalid \\u escape digit");
        }
        *out = cp;
        return true;
    }

    bool
    parseString(Value *out)
    {
        if (!consume('"'))
            return false;
        std::string s;
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                break;
            if (static_cast<unsigned char>(ch) < 0x20)
                return fail("unescaped control character in string");
            if (ch != '\\') {
                s += ch;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                s += '"';
                break;
              case '\\':
                s += '\\';
                break;
              case '/':
                s += '/';
                break;
              case 'b':
                s += '\b';
                break;
              case 'f':
                s += '\f';
                break;
              case 'n':
                s += '\n';
                break;
              case 'r':
                s += '\r';
                break;
              case 't':
                s += '\t';
                break;
              case 'u': {
                uint32_t cp = 0;
                if (!parseHex4(&cp))
                    return false;
                // Combine surrogate pairs when both halves appear.
                if (cp >= 0xd800 && cp <= 0xdbff &&
                    text_.compare(pos_, 2, "\\u") == 0) {
                    const size_t save = pos_;
                    pos_ += 2;
                    uint32_t low = 0;
                    if (!parseHex4(&low))
                        return false;
                    if (low >= 0xdc00 && low <= 0xdfff)
                        cp = 0x10000 + ((cp - 0xd800) << 10) +
                             (low - 0xdc00);
                    else
                        pos_ = save;
                }
                appendCodepoint(cp, s);
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
        *out = Value(std::move(s));
        return true;
    }

    bool
    parseNumber(Value *out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char ch = text_[pos_];
            if (ch >= '0' && ch <= '9') {
                ++pos_;
            } else if (ch == '.' || ch == 'e' || ch == 'E' ||
                       ch == '+' || ch == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-")
            return fail("invalid number");
        if (integral) {
            int64_t value = 0;
            const auto res = std::from_chars(
                token.data(), token.data() + token.size(), value);
            if (res.ec == std::errc() &&
                res.ptr == token.data() + token.size()) {
                *out = Value(value);
                return true;
            }
            // Out-of-range integers fall through to double.
        }
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("invalid number");
        *out = Value(value);
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0; ///< containers open at pos_
    std::string error_;
};

} // namespace

bool
Value::parse(const std::string &text, Value *out, std::string *error)
{
    Parser parser(text);
    Value parsed;
    if (!parser.parseDocument(&parsed)) {
        if (error)
            *error = parser.error();
        return false;
    }
    *out = std::move(parsed);
    return true;
}

} // namespace gopim::json
