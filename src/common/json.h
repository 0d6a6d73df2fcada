// Minimal JSON document model, streaming writer, and parser.
//
// Supports the JSON subset the library emits (objects, arrays, strings with
// escapes, finite doubles, booleans, null). Used to serialize explanations
// and schemas for downstream consumers (the DPClustX demo UI renders
// exactly this kind of payload); kept dependency-free on purpose.
//
// One serializer: JsonWriter appends compact JSON to a caller's buffer, and
// JsonValue::Dump is a thin recursion over it, so a tree and a direct write
// of the same document produce the same bytes. That canonical form is:
//   - no whitespace;
//   - object keys in strictly increasing byte order (std::map order). The
//     writer DPX_CHECKs this contract, so a hand-written body cannot emit
//     keys a tree would have reordered — the relay's byte splices and the
//     response-envelope merge below both depend on it;
//   - integral numbers with |x| < 1e15 as "%lld", every other finite number
//     as "%.17g" (both via std::to_chars, byte-identical to printf, exact
//     round trip); non-finite numbers as null;
//   - strings escaped as \" \\ \n \r \t, other bytes < 0x20 as \u00xx,
//     everything else (UTF-8 included) verbatim.
//
// Releases are bytes: a response body is written once with the writer and
// carried in the tree as pre-serialized values (JsonValue::Serialized),
// which Dump emits verbatim. An envelope object whose members are such
// values therefore merges its own small keys (ok, id, epsilon_*, ...) with
// the body's members in key order, byte-for-byte what a tree of the whole
// response would dump. A pre-serialized value remembers whether its writer
// met a non-finite number, so IsFinite() keeps gating responses.
// SplitDumpedObject goes the other way for cached bodies: it splits
// Dump-exact object text into pre-serialized members without building a
// tree, and refuses anything Dump would not have produced byte for byte.

#ifndef DPCLUSTX_COMMON_JSON_H_
#define DPCLUSTX_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dpclustx {

class JsonValue;

/// Streaming writer of canonical compact JSON (see the file comment),
/// appending to a caller-owned buffer. Misuse — a key outside an object, a
/// value without its key, keys out of order, unbalanced containers — is a
/// programming error and DPX_CHECKs.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// Next member's key; must sort strictly after the previous key of the
  /// same object.
  void Key(std::string_view key);

  void Null();
  void Bool(bool value);
  /// Non-finite values are written as null and clear finite().
  void Number(double value);
  void String(std::string_view value);
  /// Already-serialized JSON, copied verbatim as one value.
  void Raw(std::string_view json);

  /// False once a non-finite number was written (as null).
  bool finite() const { return finite_; }

 private:
  friend class JsonValue;  // carries a pre-serialized value's finiteness
  struct Level {
    bool object = false;
    bool first = true;
    bool has_key = false;      // object: a key awaits its value
    std::string last_key;      // object: previous key, for the order check
  };
  void BeforeValue();
  void Open(bool object, char bracket);
  void Close(bool object, char bracket);

  std::string* out_;
  std::vector<Level> levels_;  // [0, depth_) in use; storage is reused
  size_t depth_ = 0;
  bool finite_ = true;
};

class JsonValue {
 public:
  enum class Type {
    kNull, kBool, kNumber, kString, kArray, kObject,
    /// Pre-serialized JSON text, emitted verbatim by Dump/JsonWriter.
    kSerialized
  };

  /// Constructs null.
  JsonValue() : type_(Type::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  /// Accepts any double, including NaN/Inf — constructing a number must
  /// never abort, because numbers on the serving path are data-dependent
  /// (a degenerate request can legitimately produce a non-finite metric).
  /// JSON has no non-finite literals, so Dump() serializes them as `null`;
  /// boundaries that must not emit such a hole check IsFinite() first and
  /// turn it into an error response (see ServiceEngine::Dispatch).
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();
  /// Already-serialized canonical JSON for one value (typically written by
  /// a JsonWriter), emitted verbatim. `finite` is that writer's finite():
  /// IsFinite() reports it, so a pre-serialized release keeps tripping the
  /// serving boundary's non-finite gate.
  static JsonValue Serialized(std::string json, bool finite = true);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// True when every number in this value (recursively) is finite — i.e.
  /// Dump() loses nothing. Serving boundaries use this to reject responses
  /// that picked up a NaN/Inf instead of silently emitting `null`.
  bool IsFinite() const;

  /// Typed accessors; DPX_CHECK on type mismatch (programming error — use
  /// the Typed* lookups below for data-dependent access).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;

  /// Array operations.
  size_t size() const;
  const JsonValue& at(size_t index) const;
  void Append(JsonValue value);

  /// Object operations. Keys are ordered lexicographically on output.
  bool Has(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;
  void Set(const std::string& key, JsonValue value);
  /// Drops `key` if present (no-op otherwise). Proxies use this to strip
  /// internal correlation fields before relaying a response.
  void Remove(const std::string& key);
  /// Object keys in output (lexicographic) order; empty for non-objects.
  /// For callers that fold one document into another (the router's fleet
  /// metrics rollup) without knowing the key set up front.
  std::vector<std::string> ObjectKeys() const;

  /// Checked lookups returning Status on shape mismatches; for parsing
  /// untrusted documents.
  StatusOr<double> GetNumber(const std::string& key) const;
  StatusOr<std::string> GetString(const std::string& key) const;

  /// Serializes to compact JSON text (canonical form; see file comment).
  std::string Dump() const;
  /// Appends this value to `writer`'s stream.
  void WriteTo(JsonWriter& writer) const;
  /// Replaces every member of this object by its serialized form, so a
  /// later Dump only concatenates bytes (lets a caller time the
  /// serialization separately from the final copy).
  void SerializeMembers();

  /// Parses a JSON document. Returns InvalidArgument with a position on
  /// malformed input. Rejects trailing garbage.
  static StatusOr<JsonValue> Parse(const std::string& text);

  /// Splits `text` into an object whose members are pre-serialized values,
  /// without building their trees. Accepts exactly the texts that are the
  /// Dump() of some object — then Dump() of the result is `text` again and
  /// equals Parse(text)->Dump() — and refuses everything else with
  /// InvalidArgument (whitespace, unsorted or duplicate keys, non-canonical
  /// numbers or escapes, malformed or trailing bytes).
  static StatusOr<JsonValue> SplitDumpedObject(std::string_view text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Runs `write(writer)` on a fresh writer and returns its output as one
/// pre-serialized value (finiteness carried over).
template <typename WriteFn>
JsonValue SerializeWith(WriteFn&& write) {
  std::string out;
  JsonWriter writer(&out);
  write(writer);
  return JsonValue::Serialized(std::move(out), writer.finite());
}

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_JSON_H_
