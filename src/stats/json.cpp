#include "stats/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <locale>
#include <stdexcept>
#include <string>

namespace lktm::stats::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& src) : src_(src) {}

  Value parse() {
    Value v = value();
    skipWs();
    if (pos_ != src_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at byte " + std::to_string(pos_) +
                             ": " + why);
  }

  void skipWs() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= src_.size()) fail("unexpected end of input");
    return src_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value value() {
    skipWs();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxParseDepth) {
          fail("nesting deeper than " + std::to_string(kMaxParseDepth) + " levels");
        }
        ++depth_;
        Value v = peek() == '{' ? objectValue() : arrayValue();
        --depth_;
        return v;
      }
      case '"': return stringValue();
      case 't': return literal("true", boolValue(true));
      case 'f': return literal("false", boolValue(false));
      case 'n': return literal("null", Value{});
      default: return numberValue();
    }
  }

  static Value boolValue(bool b) {
    Value v;
    v.kind = Value::Kind::Bool;
    v.boolean = b;
    return v;
  }

  Value literal(const std::string& word, Value v) {
    if (src_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
    return v;
  }

  Value stringValue() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= src_.size()) fail("unterminated string");
      const char c = src_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= src_.size()) fail("bad escape");
        const char e = src_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Our producers are ASCII; keep the raw sequence readable.
            if (pos_ + 4 > src_.size()) fail("bad \\u escape");
            out += "\\u" + src_.substr(pos_, 4);
            pos_ += 4;
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    Value v;
    v.kind = Value::Kind::String;
    v.text = std::move(out);
    return v;
  }

  bool isDigitAt(std::size_t i) const {
    return i < src_.size() && std::isdigit(static_cast<unsigned char>(src_[i])) != 0;
  }

  /// Consume one or more digits; fail with `what` if there is none.
  void digits(const char* what) {
    if (!isDigitAt(pos_)) fail(what);
    while (isDigitAt(pos_)) ++pos_;
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  Value numberValue() {
    const std::size_t start = pos_;
    if (src_[pos_] == '-') ++pos_;
    if (!isDigitAt(pos_)) {
      fail(pos_ == start ? "expected a value" : "expected a digit after '-'");
    }
    if (src_[pos_++] != '0') {
      while (isDigitAt(pos_)) ++pos_;
    }
    if (pos_ < src_.size() && src_[pos_] == '.') {
      ++pos_;
      digits("expected a digit after '.'");
    }
    if (pos_ < src_.size() && (src_[pos_] == 'e' || src_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < src_.size() && (src_[pos_] == '+' || src_[pos_] == '-')) ++pos_;
      digits("expected an exponent digit");
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.text = src_.substr(start, pos_ - start);  // raw literal, kept for exactU64
    const char* end = v.text.data() + v.text.size();
    // from_chars reports both overflow and underflow to zero as out of range.
    const auto [stop, ec] = std::from_chars(v.text.data(), end, v.number);
    if (ec != std::errc{} || stop != end) {
      pos_ = start;
      fail("number out of range");
    }
    return v;
  }

  Value arrayValue() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    v.array = std::make_shared<Array>();
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array->push_back(value());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value objectValue() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    v.object = std::make_shared<Object>();
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      Value key = stringValue();
      skipWs();
      expect(':');
      (*v.object)[key.text] = value();
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;  ///< arrays and objects open around pos_
};

}  // namespace

Value parse(const std::string& src) { return Parser(src).parse(); }

bool exactU64(const Value& v, std::uint64_t& out) {
  if (v.kind != Value::Kind::Number || v.text.empty()) return false;
  const char* end = v.text.data() + v.text.size();
  // Integer from_chars takes no sign for an unsigned type and stops at a
  // '.' or an exponent, so only a plain digit literal consumes the text.
  const auto [ptr, ec] = std::from_chars(v.text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

std::uint64_t asU64(const Value& v) {
  std::uint64_t out = 0;
  return exactU64(v, out) ? out : 0;
}

namespace {

[[noreturn]] void badField(const char* key, const char* want) {
  throw std::runtime_error(std::string("\"") + key + "\" must be " + want);
}

}  // namespace

const Value& need(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error(std::string("missing \"") + key + "\"");
  return *v;
}

const std::string& needString(const Value& obj, const char* key) {
  const Value& v = need(obj, key);
  if (!v.isString()) badField(key, "a string");
  return v.text;
}

std::uint64_t needU64(const Value& obj, const char* key) {
  std::uint64_t out = 0;
  if (!exactU64(need(obj, key), out)) badField(key, "an unsigned 64-bit integer");
  return out;
}

unsigned needUnsigned(const Value& obj, const char* key) {
  std::uint64_t v = 0;
  if (!exactU64(need(obj, key), v) || v > std::numeric_limits<unsigned>::max()) {
    badField(key, "an unsigned 32-bit integer");
  }
  return static_cast<unsigned>(v);
}

double needNumber(const Value& obj, const char* key) {
  const Value& v = need(obj, key);
  if (!v.isNumber()) badField(key, "a number");
  return v.number;
}

bool needBool(const Value& obj, const char* key) {
  const Value& v = need(obj, key);
  if (v.kind != Value::Kind::Bool) badField(key, "a boolean");
  return v.boolean;
}

const Array& needArray(const Value& obj, const char* key) {
  const Value& v = need(obj, key);
  if (!v.isArray()) badField(key, "an array");
  return *v.array;
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string formatDouble(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

Writer::Writer(std::ostream& os, bool pretty) : os_(os), pretty_(pretty) {
  os_.imbue(std::locale::classic());
}

void Writer::indent() {
  if (!pretty_) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void Writer::separate() {
  if (pendingKey_) {
    pendingKey_ = false;
    return;  // the key already placed the comma/indent
  }
  if (!stack_.empty()) {
    if (stack_.back().hasElements) os_ << ',';
    stack_.back().hasElements = true;
    indent();
  }
}

void Writer::beginObject() {
  separate();
  os_ << '{';
  stack_.push_back({'}'});
}

void Writer::endObject() {
  const bool had = !stack_.empty() && stack_.back().hasElements;
  stack_.pop_back();
  if (had) indent();
  os_ << '}';
  if (stack_.empty() && pretty_) os_ << '\n';
}

void Writer::beginArray() {
  separate();
  os_ << '[';
  stack_.push_back({']'});
}

void Writer::endArray() {
  const bool had = !stack_.empty() && stack_.back().hasElements;
  stack_.pop_back();
  if (had) indent();
  os_ << ']';
}

void Writer::key(const std::string& k) {
  separate();
  os_ << quote(k) << (pretty_ ? ": " : ":");
  pendingKey_ = true;
}

void Writer::value(const std::string& v) {
  separate();
  os_ << quote(v);
}

void Writer::value(const char* v) { value(std::string(v)); }

void Writer::value(std::uint64_t v) {
  separate();
  os_ << std::to_string(v);
}

void Writer::value(std::int64_t v) {
  separate();
  os_ << std::to_string(v);
}

void Writer::value(double v) {
  separate();
  os_ << formatDouble(v);
}

void Writer::value(bool v) {
  separate();
  os_ << (v ? "true" : "false");
}

void Writer::null() {
  separate();
  os_ << "null";
}

}  // namespace lktm::stats::json
