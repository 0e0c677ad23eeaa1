/**
 * @file
 * Minimal JSON value type with a writer and a strict parser, shared
 * by the serving layer (JSONL requests/responses, cache keys) and
 * the result reporters (--json / --json-out machine-readable bench
 * output).
 *
 * Design points that matter to callers:
 *  - Objects preserve insertion order for dump(), and canonical()
 *    re-serializes with keys sorted recursively, so two semantically
 *    equal documents hash identically regardless of field order.
 *  - Numbers keep int64 exactness when possible; doubles serialize
 *    via std::to_chars (shortest round-trip form), so serialization
 *    is deterministic and bit-stable — the property the serving
 *    cache's byte-identical-response guarantee rests on.
 */

#ifndef GOPIM_COMMON_JSON_HH
#define GOPIM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gopim::json {

/**
 * Deepest array/object nesting Value::parse accepts. The parser
 * recurses once per level, so the bound keeps a hostile line (a
 * megabyte of '[') a parse error instead of a stack overflow.
 */
inline constexpr int kMaxParseDepth = 256;

/** Escape a string's content for embedding in a JSON literal. */
std::string escape(const std::string &s);

/** Shortest round-trip rendering of a double ("null" if not finite). */
std::string formatDouble(double value);

/** One JSON value: null, bool, number, string, array, or object. */
class Value
{
  public:
    enum class Kind { Null, Bool, Int, Double, String, Array, Object };

    Value() = default; ///< null
    Value(std::nullptr_t) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Double), double_(d) {}
    Value(int64_t i) : kind_(Kind::Int), int_(i) {}
    Value(const char *s) : kind_(Kind::String), string_(s) {}
    Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    /** Any other integer type narrows onto int64. */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool> &&
                                   !std::is_same_v<T, int64_t>,
                               int> = 0>
    Value(T i) : Value(static_cast<int64_t>(i))
    {
    }

    static Value array() { return Value(Kind::Array); }
    static Value object() { return Value(Kind::Object); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; panic (assert) on kind mismatch. */
    bool asBool() const;
    int64_t asInt() const;    ///< Int, or a Double with integral value
    double asDouble() const;  ///< any number
    const std::string &asString() const;

    // Array interface.
    void push(Value v);
    size_t size() const;
    const Value &at(size_t index) const;
    const std::vector<Value> &items() const;

    // Object interface (insertion-ordered; set() overwrites in place).
    Value &set(const std::string &key, Value v);
    const Value *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** Compact serialization, object keys in insertion order. */
    std::string dump() const;
    /** Pretty serialization: objects indented, arrays kept inline. */
    std::string dumpIndented(int indent = 0) const;
    /** Compact serialization with object keys sorted recursively. */
    std::string canonical() const;

    /**
     * Strict parse of a complete JSON document. Returns false and
     * fills `error` (when given) on malformed input, trailing
     * garbage or nesting deeper than kMaxParseDepth; `out` is
     * untouched on failure.
     */
    static bool parse(const std::string &text, Value *out,
                      std::string *error = nullptr);

  private:
    explicit Value(Kind kind) : kind_(kind) {}

    void write(std::string &out, int indent, int depth,
               bool sortKeys) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> object_;
};

} // namespace gopim::json

#endif // GOPIM_COMMON_JSON_HH
