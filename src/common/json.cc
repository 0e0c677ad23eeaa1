#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace gopim::json {

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
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
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
formatDouble(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

bool
Value::asBool() const
{
    GOPIM_ASSERT(kind_ == Kind::Bool, "json value is not a bool");
    return bool_;
}

int64_t
Value::asInt() const
{
    if (kind_ == Kind::Int)
        return int_;
    GOPIM_ASSERT(kind_ == Kind::Double &&
                     double_ == std::floor(double_),
                 "json value is not an integer");
    return static_cast<int64_t>(double_);
}

double
Value::asDouble() const
{
    if (kind_ == Kind::Int)
        return static_cast<double>(int_);
    GOPIM_ASSERT(kind_ == Kind::Double, "json value is not a number");
    return double_;
}

const std::string &
Value::asString() const
{
    GOPIM_ASSERT(kind_ == Kind::String, "json value is not a string");
    return string_;
}

void
Value::push(Value v)
{
    GOPIM_ASSERT(kind_ == Kind::Array, "push on non-array json value");
    array_.push_back(std::move(v));
}

size_t
Value::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    GOPIM_ASSERT(kind_ == Kind::Object, "size of non-container");
    return object_.size();
}

const Value &
Value::at(size_t index) const
{
    GOPIM_ASSERT(kind_ == Kind::Array && index < array_.size(),
                 "json array index out of range");
    return array_[index];
}

const std::vector<Value> &
Value::items() const
{
    GOPIM_ASSERT(kind_ == Kind::Array, "items of non-array");
    return array_;
}

Value &
Value::set(const std::string &key, Value v)
{
    GOPIM_ASSERT(kind_ == Kind::Object, "set on non-object json value");
    for (auto &member : object_) {
        if (member.first == key) {
            member.second = std::move(v);
            return member.second;
        }
    }
    object_.emplace_back(key, std::move(v));
    return object_.back().second;
}

const Value *
Value::find(const std::string &key) const
{
    GOPIM_ASSERT(kind_ == Kind::Object, "find on non-object json value");
    for (const auto &member : object_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    GOPIM_ASSERT(kind_ == Kind::Object, "members of non-object");
    return object_;
}

void
Value::write(std::string &out, int indent, int depth,
             bool sortKeys) const
{
    const bool pretty = indent >= 0;
    const auto newline = [&](int d) {
        out += '\n';
        out.append(static_cast<size_t>(indent + 2 * d), ' ');
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Int:
        out += std::to_string(int_);
        break;
      case Kind::Double:
        out += formatDouble(double_);
        break;
      case Kind::String:
        out += '"';
        out += escape(string_);
        out += '"';
        break;
      case Kind::Array:
        // Arrays stay inline even in pretty mode: result vectors are
        // short and read better as one row.
        out += '[';
        for (size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += pretty ? ", " : ",";
            array_[i].write(out, -1, 0, sortKeys);
        }
        out += ']';
        break;
      case Kind::Object: {
        std::vector<const std::pair<std::string, Value> *> members;
        members.reserve(object_.size());
        for (const auto &member : object_)
            members.push_back(&member);
        if (sortKeys)
            std::sort(members.begin(), members.end(),
                      [](const auto *a, const auto *b) {
                          return a->first < b->first;
                      });
        out += '{';
        for (size_t i = 0; i < members.size(); ++i) {
            if (i)
                out += ',';
            if (pretty)
                newline(depth + 1);
            out += '"';
            out += escape(members[i]->first);
            out += pretty ? "\": " : "\":";
            members[i]->second.write(out, indent, depth + 1, sortKeys);
        }
        if (pretty && !members.empty())
            newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump() const
{
    std::string out;
    write(out, -1, 0, false);
    return out;
}

std::string
Value::dumpIndented(int indent) const
{
    std::string out;
    out.append(static_cast<size_t>(indent), ' ');
    write(out, indent, 0, false);
    return out;
}

std::string
Value::canonical() const
{
    std::string out;
    write(out, -1, 0, true);
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
