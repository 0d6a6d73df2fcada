#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace dpclustx {

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  // Deliberately no finiteness check: aborting here would let any NaN
  // produced anywhere in a response take down the whole process (the
  // serving path feeds data-dependent doubles through this constructor).
  // Dump() serializes non-finite values as null; IsFinite() lets
  // boundaries detect and reject them.
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Serialized(std::string json, bool finite) {
  JsonValue v;
  v.type_ = Type::kSerialized;
  v.string_ = std::move(json);
  v.bool_ = finite;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  DPX_CHECK(type_ == Type::kBool);
  return bool_;
}

double JsonValue::AsNumber() const {
  DPX_CHECK(type_ == Type::kNumber);
  return number_;
}

const std::string& JsonValue::AsString() const {
  DPX_CHECK(type_ == Type::kString);
  return string_;
}

size_t JsonValue::size() const {
  DPX_CHECK(type_ == Type::kArray);
  return array_.size();
}

const JsonValue& JsonValue::at(size_t index) const {
  DPX_CHECK(type_ == Type::kArray);
  DPX_CHECK_LT(index, array_.size());
  return array_[index];
}

void JsonValue::Append(JsonValue value) {
  DPX_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(value));
}

bool JsonValue::Has(const std::string& key) const {
  DPX_CHECK(type_ == Type::kObject);
  return object_.count(key) > 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  DPX_CHECK(type_ == Type::kObject);
  const auto it = object_.find(key);
  DPX_CHECK(it != object_.end()) << "missing key '" << key << "'";
  return it->second;
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  DPX_CHECK(type_ == Type::kObject);
  object_[key] = std::move(value);
}

void JsonValue::Remove(const std::string& key) {
  DPX_CHECK(type_ == Type::kObject);
  object_.erase(key);
}

std::vector<std::string> JsonValue::ObjectKeys() const {
  std::vector<std::string> keys;
  if (type_ != Type::kObject) return keys;
  keys.reserve(object_.size());
  for (const auto& [key, value] : object_) keys.push_back(key);
  return keys;
}

bool JsonValue::IsFinite() const {
  switch (type_) {
    case Type::kNumber:
      return std::isfinite(number_);
    case Type::kSerialized:
      return bool_;
    case Type::kArray:
      for (const JsonValue& v : array_) {
        if (!v.IsFinite()) return false;
      }
      return true;
    case Type::kObject:
      for (const auto& [key, v] : object_) {
        if (!v.IsFinite()) return false;
      }
      return true;
    default:
      return true;
  }
}

StatusOr<double> JsonValue::GetNumber(const std::string& key) const {
  if (type_ != Type::kObject) {
    return Status::InvalidArgument("not an object");
  }
  const auto it = object_.find(key);
  if (it == object_.end() || it->second.type_ != Type::kNumber) {
    return Status::InvalidArgument("missing numeric field '" + key + "'");
  }
  return it->second.number_;
}

StatusOr<std::string> JsonValue::GetString(const std::string& key) const {
  if (type_ != Type::kObject) {
    return Status::InvalidArgument("not an object");
  }
  const auto it = object_.find(key);
  if (it == object_.end() || it->second.type_ != Type::kString) {
    return Status::InvalidArgument("missing string field '" + key + "'");
  }
  return it->second.string_;
}

namespace {

void EscapeInto(std::string_view s, std::string& out) {
  out += '"';
  size_t run = 0;  // start of the pending verbatim run
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

/// Appends `x` in canonical form; false (and "null") when it is not finite.
bool NumberInto(double x, std::string& out) {
  // JSON has no NaN/Inf literals; serialize them as null so output is
  // always parseable (boundaries that must not lose the value gate on
  // IsFinite() before dumping).
  if (!std::isfinite(x)) {
    out += "null";
    return false;
  }
  // Integers print without exponent/decimals ("%lld"); others with enough
  // digits to round-trip ("%.17g"). std::to_chars produces the same bytes
  // as printf for both, without the locale and format-string overhead.
  char buf[32];
  const std::to_chars_result r =
      x == std::floor(x) && std::fabs(x) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(x))
          : std::to_chars(buf, buf + sizeof(buf), x,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
  return true;
}

}  // namespace

void JsonWriter::BeforeValue() {
  if (depth_ == 0) return;
  Level& level = levels_[depth_ - 1];
  if (level.object) {
    DPX_CHECK(level.has_key) << "JSON object value written without a key";
    level.has_key = false;
    return;
  }
  if (!level.first) *out_ += ',';
  level.first = false;
}

void JsonWriter::Open(bool object, char bracket) {
  BeforeValue();
  *out_ += bracket;
  if (depth_ == levels_.size()) levels_.emplace_back();
  Level& level = levels_[depth_++];
  level.object = object;
  level.first = true;
  level.has_key = false;
  level.last_key.clear();
}

void JsonWriter::Close(bool object, char bracket) {
  DPX_CHECK(depth_ > 0 && levels_[depth_ - 1].object == object &&
            !levels_[depth_ - 1].has_key)
      << "unbalanced JSON container";
  --depth_;
  *out_ += bracket;
}

void JsonWriter::BeginObject() { Open(true, '{'); }
void JsonWriter::EndObject() { Close(true, '}'); }
void JsonWriter::BeginArray() { Open(false, '['); }
void JsonWriter::EndArray() { Close(false, ']'); }

void JsonWriter::Key(std::string_view key) {
  DPX_CHECK(depth_ > 0 && levels_[depth_ - 1].object &&
            !levels_[depth_ - 1].has_key)
      << "JSON key outside an object";
  Level& level = levels_[depth_ - 1];
  DPX_CHECK(level.first || std::string_view(level.last_key) < key)
      << "JSON keys out of order: '" << level.last_key << "' then '" << key
      << "'";
  if (!level.first) *out_ += ',';
  level.first = false;
  level.has_key = true;
  level.last_key.assign(key.data(), key.size());
  EscapeInto(key, *out_);
  *out_ += ':';
}

void JsonWriter::Null() {
  BeforeValue();
  *out_ += "null";
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  *out_ += value ? "true" : "false";
}

void JsonWriter::Number(double value) {
  BeforeValue();
  if (!NumberInto(value, *out_)) finite_ = false;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  EscapeInto(value, *out_);
}

void JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_->append(json.data(), json.size());
}

void JsonValue::WriteTo(JsonWriter& writer) const {
  switch (type_) {
    case Type::kNull:
      writer.Null();
      break;
    case Type::kBool:
      writer.Bool(bool_);
      break;
    case Type::kNumber:
      writer.Number(number_);
      break;
    case Type::kString:
      writer.String(string_);
      break;
    case Type::kSerialized:
      writer.Raw(string_);
      if (!bool_) writer.finite_ = false;
      break;
    case Type::kArray:
      writer.BeginArray();
      for (const JsonValue& v : array_) v.WriteTo(writer);
      writer.EndArray();
      break;
    case Type::kObject:
      writer.BeginObject();
      for (const auto& [key, v] : object_) {
        writer.Key(key);
        v.WriteTo(writer);
      }
      writer.EndObject();
      break;
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  JsonWriter writer(&out);
  WriteTo(writer);
  return out;
}

void JsonValue::SerializeMembers() {
  DPX_CHECK(type_ == Type::kObject);
  for (auto& [key, value] : object_) {
    if (value.type_ == Type::kSerialized) continue;
    value = SerializeWith([&](JsonWriter& w) { value.WriteTo(w); });
  }
}

namespace {

// Recursive-descent parser over a string view with position tracking.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    DPX_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      DPX_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeLiteral("true")) return JsonValue::Bool(true);
    if (ConsumeLiteral("false")) return JsonValue::Bool(false);
    if (ConsumeLiteral("null")) return JsonValue::Null();
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject() {
    Consume('{');
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      DPX_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      DPX_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      object.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    Consume('[');
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      DPX_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      array.Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("dangling escape");
        const char escape = text_[pos_++];
        switch (escape) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Error("bad \\u escape digit");
            }
            // BMP code points only; encode as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    if (!std::isfinite(value)) return Error("non-finite number");
    return JsonValue::Number(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

namespace {

// Validating scanner over text that claims to be Dump() output. It accepts
// exactly the canonical language the writer emits, so acceptance implies
// Parse(text)->Dump() == text without building a tree.
class DumpedScanner {
 public:
  explicit DumpedScanner(std::string_view text) : s_(text) {}

  StatusOr<JsonValue> SplitObject() {
    if (!Eat('{')) return Error("not an object");
    JsonValue object = JsonValue::Object();
    std::string previous;
    bool first = true;
    if (Eat('}')) return Finish(std::move(object));
    while (true) {
      std::string key;
      DPX_RETURN_IF_ERROR(Key(first ? nullptr : &previous, &key));
      const size_t begin = pos_;
      DPX_RETURN_IF_ERROR(Value(0));
      object.Set(key, JsonValue::Serialized(
                          std::string(s_.substr(begin, pos_ - begin))));
      previous = std::move(key);
      first = false;
      if (Eat(',')) continue;
      if (Eat('}')) return Finish(std::move(object));
      return Error("expected ',' or '}'");
    }
  }

 private:
  // Deeper nesting than any release; keeps the scan's stack bounded.
  static constexpr int kMaxDepth = 256;

  Status Error(const char* what) const {
    return Status::InvalidArgument("not Dump() output at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> Finish(JsonValue object) {
    if (pos_ != s_.size()) return Error("trailing bytes");
    return object;
  }

  // Object key (decoded into `key`), then ':'. Keys must strictly follow
  // `previous` in byte order, as std::map emits them.
  Status Key(const std::string* previous, std::string* key) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Error("expected a key");
    DPX_RETURN_IF_ERROR(String(key));
    if (previous != nullptr && !(*previous < *key)) {
      return Error("keys not in strictly increasing order");
    }
    if (!Eat(':')) return Error("expected ':'");
    return Status::OK();
  }

  // A canonical string starting at the opening quote. Decodes into `out`
  // when non-null (keys); values are only validated.
  Status String(std::string* out) {
    ++pos_;
    size_t run = pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        if (out != nullptr) out->append(s_.data() + run, pos_ - run);
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control byte in string");
      if (c != '\\') {
        ++pos_;
        continue;
      }
      if (out != nullptr) out->append(s_.data() + run, pos_ - run);
      if (pos_ + 1 >= s_.size()) return Error("dangling escape");
      char decoded;
      switch (s_[pos_ + 1]) {
        case '"': decoded = '"'; break;
        case '\\': decoded = '\\'; break;
        case 'n': decoded = '\n'; break;
        case 'r': decoded = '\r'; break;
        case 't': decoded = '\t'; break;
        case 'u': {
          // Only \u00xx (lowercase hex) for control bytes that have no
          // short escape — the writer's only \u form.
          const auto hex = [](char h) {
            return h >= '0' && h <= '9'   ? h - '0'
                   : h >= 'a' && h <= 'f' ? h - 'a' + 10
                                          : -1;
          };
          if (pos_ + 6 > s_.size() || s_[pos_ + 2] != '0' ||
              s_[pos_ + 3] != '0' || hex(s_[pos_ + 4]) < 0 ||
              hex(s_[pos_ + 4]) > 1 || hex(s_[pos_ + 5]) < 0) {
            return Error("non-canonical \\u escape");
          }
          decoded = static_cast<char>(hex(s_[pos_ + 4]) * 16 +
                                      hex(s_[pos_ + 5]));
          if (decoded == '\n' || decoded == '\r' || decoded == '\t') {
            return Error("non-canonical \\u escape");
          }
          pos_ += 4;
          break;
        }
        default:
          return Error("non-canonical escape");
      }
      if (out != nullptr) *out += decoded;
      pos_ += 2;
      run = pos_;
    }
    return Error("unterminated string");
  }

  // A number token as Parse delimits it ([0-9.eE+-]*), accepted only when
  // it is exactly what the writer prints for the value Parse would read.
  Status Number() {
    const size_t begin = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = s_.substr(begin, pos_ - begin);
    if (token.empty()) return Error("expected a value");
    // Fast path: a short plain integer is canonical unless it has a leading
    // zero or is "-0" (both print differently).
    const size_t sign = token[0] == '-' ? 1 : 0;
    const std::string_view digits = token.substr(sign);
    if (!digits.empty() && digits.size() <= 15 &&
        digits.find_first_not_of("0123456789") == std::string_view::npos) {
      if (digits[0] == '0' && (digits.size() > 1 || sign == 1)) {
        return Error("non-canonical number");
      }
      return Status::OK();
    }
    char buf[40];
    if (token.size() >= sizeof(buf)) return Error("non-canonical number");
    std::memcpy(buf, token.data(), token.size());
    buf[token.size()] = '\0';
    char* end = nullptr;
    const double value = std::strtod(buf, &end);
    std::string canonical;
    if (end != buf + token.size() || !NumberInto(value, canonical) ||
        canonical != token) {
      return Error("non-canonical number");
    }
    return Status::OK();
  }

  Status Literal(std::string_view literal) {
    if (s_.substr(pos_, literal.size()) != literal) {
      return Error("expected a value");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status Value(int depth) {
    if (pos_ >= s_.size()) return Error("unexpected end of input");
    switch (s_[pos_]) {
      case '"':
        return String(nullptr);
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      case '[': {
        if (depth >= kMaxDepth) return Error("nesting too deep");
        ++pos_;
        if (Eat(']')) return Status::OK();
        while (true) {
          DPX_RETURN_IF_ERROR(Value(depth + 1));
          if (Eat(',')) continue;
          if (Eat(']')) return Status::OK();
          return Error("expected ',' or ']'");
        }
      }
      case '{': {
        if (depth >= kMaxDepth) return Error("nesting too deep");
        ++pos_;
        if (Eat('}')) return Status::OK();
        std::string previous;
        bool first = true;
        while (true) {
          std::string key;
          DPX_RETURN_IF_ERROR(Key(first ? nullptr : &previous, &key));
          DPX_RETURN_IF_ERROR(Value(depth + 1));
          previous = std::move(key);
          first = false;
          if (Eat(',')) continue;
          if (Eat('}')) return Status::OK();
          return Error("expected ',' or '}'");
        }
      }
      default:
        return Number();
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::SplitDumpedObject(std::string_view text) {
  return DumpedScanner(text).SplitObject();
}

}  // namespace dpclustx
