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
 *  - dump(), canonical() and dumpIndented() share one writer that
 *    appends into a single reserved string: strings escape in place,
 *    numbers go through std::to_chars, and canonical() sorts each
 *    object's members through a stack index of pointers, so writing
 *    allocates nothing beyond the output.
 */

#ifndef GOPIM_COMMON_JSON_HH
#define GOPIM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace gopim::json {

/**
 * Deepest array/object nesting Value::parse accepts. The parser
 * recurses once per level, so the bound keeps a hostile line (a
 * megabyte of '[') a parse error instead of a stack overflow.
 */
inline constexpr int kMaxParseDepth = 256;

/**
 * Escape a string's content for embedding in a JSON literal, by the
 * rule the writer applies to every string and key.
 */
std::string escape(std::string_view s);

/**
 * One JSON value: null, bool, number, string, array, or object, or a
 * raw already-serialized fragment (Value::raw).
 */
class Value
{
  public:
    enum class Kind { Null, Bool, Int, Double, String, Array, Object, Raw };

    Value() = default; ///< null
    Value(std::nullptr_t) {}
    Value(bool b) : v_(in<Kind::Bool>, b) {}
    Value(double d) : v_(in<Kind::Double>, d) {}
    Value(int64_t i) : v_(in<Kind::Int>, i) {}
    Value(const char *s) : v_(in<Kind::String>, s) {}
    Value(std::string s) : v_(in<Kind::String>, std::move(s)) {}
    /** Any other integer type narrows onto int64. */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool> &&
                                   !std::is_same_v<T, int64_t>,
                               int> = 0>
    Value(T i) : Value(static_cast<int64_t>(i))
    {
    }

    static Value array() { return Value(in<Kind::Array>); }
    static Value object() { return Value(in<Kind::Object>); }
    /**
     * Already-serialized JSON that every writer copies verbatim, for
     * a section serialized once and spliced into many documents.
     * Its bytes do not follow the surrounding call: write them in the
     * form the document will be written (e.g. canonical()).
     */
    static Value raw(std::string text)
    {
        return Value(in<Kind::Raw>, std::move(text));
    }

    Kind kind() const { return static_cast<Kind>(v_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isNumber() const
    {
        return kind() == Kind::Int || kind() == Kind::Double;
    }
    bool isInt() const { return kind() == Kind::Int; }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isObject() const { return kind() == Kind::Object; }

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
    Value &set(std::string key, Value v);
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
    friend class Writer;
    using Member = std::pair<std::string, Value>;

    /** Tag constructing the alternative that holds kind K. */
    template <Kind K>
    static constexpr std::in_place_index_t<static_cast<size_t>(K)> in{};

    template <size_t I, typename... Args>
    explicit Value(std::in_place_index_t<I> tag, Args &&...args)
        : v_(tag, std::forward<Args>(args)...)
    {
    }

    /** The kind-K alternative; the caller has checked kind(). */
    template <Kind K>
    auto &get() { return *std::get_if<static_cast<size_t>(K)>(&v_); }
    template <Kind K>
    const auto &
    get() const
    {
        return *std::get_if<static_cast<size_t>(K)>(&v_);
    }

    /** Alternative i holds Kind(i), so kind() is the index. */
    std::variant<std::monostate, bool, int64_t, double, std::string,
                 std::vector<Value>, std::vector<Member>, std::string>
        v_;
};

} // namespace gopim::json

#endif // GOPIM_COMMON_JSON_HH
