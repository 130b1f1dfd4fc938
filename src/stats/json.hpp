// Minimal JSON support shared by the instrumentation spine: a streaming
// writer for the run artifacts / trace files, the recursive-descent reader,
// and the strict field accessors the artifact schema readers are built on.
// Only what our own formats need — objects, arrays, strings, numbers,
// true/false/null, common escapes.
//
// All emission is locale-independent: integers via std::to_string, doubles
// via std::to_chars, and every stream this writer drives should additionally
// be imbued with std::locale::classic() by the caller (writeTo does it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace lktm::stats::json {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String content for Kind::String; for Kind::Number, the raw literal as it
  /// appeared in the document. exactU64 reads integers from the literal, so
  /// u64 values above 2^53 (seeds, counters) are not rounded through `number`.
  std::string text;
  std::shared_ptr<Array> array;
  std::shared_ptr<Object> object;

  const Value* find(const std::string& key) const {
    if (kind != Kind::Object || object == nullptr) return nullptr;
    const auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
  }
  bool isString() const { return kind == Kind::String; }
  bool isNumber() const { return kind == Kind::Number; }
  bool isArray() const { return kind == Kind::Array && array != nullptr; }
  bool isObject() const { return kind == Kind::Object && object != nullptr; }
};

/// Deepest array/object nesting parse() accepts. The parser recurses once per
/// level, so the limit keeps hostile input from overflowing the stack.
inline constexpr unsigned kMaxParseDepth = 512;

/// Parse a complete JSON document. Throws std::runtime_error with a byte
/// offset on malformed input, including nesting deeper than kMaxParseDepth.
Value parse(const std::string& src);

/// True when `v` is a plain unsigned integer literal (digits only: no sign,
/// fraction or exponent) whose value fits in u64; `out` then holds it exactly.
bool exactU64(const Value& v, std::uint64_t& out);

/// Unsigned 64-bit view of a parsed number: exactU64's value, else 0. So -1,
/// 2.5, 1e30 and 18446744073709551616 all read as 0, never as a wrapped or
/// truncated number. Schema readers reject such fields instead (needU64).
std::uint64_t asU64(const Value& v);

// Strict field access for the schema readers (config/artifact.hpp,
// config/orchestrator.hpp): each returns field `key` of object `obj` and
// throws std::runtime_error naming the key when it is missing or has the
// wrong type.
const Value& need(const Value& obj, const char* key);
const std::string& needString(const Value& obj, const char* key);
/// A plain unsigned integer literal that fits in u64 (exactU64).
std::uint64_t needU64(const Value& obj, const char* key);
/// needU64, also bounded by the range of `unsigned`.
unsigned needUnsigned(const Value& obj, const char* key);
double needNumber(const Value& obj, const char* key);
bool needBool(const Value& obj, const char* key);
const Array& needArray(const Value& obj, const char* key);

/// Escape and quote a string for JSON output.
std::string quote(const std::string& s);

/// Locale-independent number formatting (std::to_chars; shortest roundtrip).
std::string formatDouble(double v);

/// Streaming writer with explicit structure: the caller opens/closes objects
/// and arrays; commas are inserted automatically. Output is deterministic:
/// emission order is exactly the call order.
class Writer {
 public:
  /// Imbues the stream with the classic locale so numeric punctuation can
  /// never vary with the host environment.
  explicit Writer(std::ostream& os, bool pretty = true);

  void beginObject();
  void endObject();
  void beginArray();
  void endArray();

  /// Start a keyed child inside an object.
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(double v);
  void value(bool v);
  void null();

  /// key + value in one call.
  template <class T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

 private:
  void separate();  ///< comma/newline bookkeeping before a new element
  void indent();

  std::ostream& os_;
  bool pretty_;
  struct Scope {
    char close;        // '}' or ']'
    bool hasElements = false;
  };
  std::vector<Scope> stack_;
  bool pendingKey_ = false;
};

}  // namespace lktm::stats::json
