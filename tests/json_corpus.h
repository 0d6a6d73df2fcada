// Seeded JSON corpus shared by json_test and json_split_fuzz_test: random
// trees whose numbers hit the formatter's edges, plus the serializer the
// streaming writer replaced (per-node std::string returns, snprintf
// "%lld"/"%.17g", byte-by-byte escaping) as an independent reference.

#ifndef DPCLUSTX_TESTS_JSON_CORPUS_H_
#define DPCLUSTX_TESTS_JSON_CORPUS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/json.h"

namespace dpclustx::testing_json {

/// Doubles at the formatter's boundaries: signed zero, the 1e15 integer
/// cut-over, 2^53 and beyond, subnormals, extremes, short decimals.
inline std::vector<double> EdgeDoubles() {
  const double kMax = std::numeric_limits<double>::max();
  const double kMinNormal = std::numeric_limits<double>::min();
  const double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> v = {0.0,   -0.0,        1.0,        -1.0,
                           0.5,   0.1,         0.3,        1.7,
                           1e15,  -1e15,       1e16,       1e21,
                           1e22,  1e-5,        1e-7,       123456.789,
                           kMax,  -kMax,       kMinNormal, -kMinNormal,
                           kDenorm, -kDenorm,  kDenorm * 3,
                           2.2250738585072009e-308,
                           9007199254740992.0, 9007199254740993.0,
                           18014398509481984.0, -9007199254740994.0,
                           999999999999999.0, 999999999999999.5,
                           4503599627370495.5, 1e300, 1e-300};
  for (const double edge : {1e15, -1e15, 9007199254740992.0, 1e-308}) {
    v.push_back(std::nextafter(edge, 0.0));
    v.push_back(std::nextafter(edge, kMax));
    v.push_back(std::nextafter(edge, -kMax));
  }
  return v;
}

/// A random double: an edge value, a random bit pattern (finite only), a
/// random integer up to 2^60, or a short decimal.
inline double RandomDouble(std::mt19937_64& rng) {
  static const std::vector<double> edges = EdgeDoubles();
  switch (rng() % 4) {
    case 0:
      return edges[rng() % edges.size()];
    case 1: {
      double d;
      do {
        const uint64_t bits = rng();
        std::memcpy(&d, &bits, sizeof(d));
      } while (!std::isfinite(d));
      return d;
    }
    case 2: {
      const double magnitude =
          static_cast<double>(rng() >> (4 + rng() % 60));
      return rng() % 2 ? magnitude : -magnitude;
    }
    default:
      return static_cast<double>(static_cast<int64_t>(rng() % 2000001) -
                                 1000000) /
             1000.0;
  }
}

/// A random string mixing ASCII, quotes, backslashes, every control byte
/// and multi-byte UTF-8.
inline std::string RandomString(std::mt19937_64& rng, size_t max_len = 12) {
  static const char* kPieces[] = {"a", "b", "Z", "_", "\"", "\\", "/", " ",
                                  "\xC3\xA9", "\xE2\x82\xAC", "\x7F", "0"};
  std::string s;
  const size_t len = rng() % (max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    if (rng() % 4 == 0) {
      s += static_cast<char>(rng() % 0x20);  // control byte
    } else {
      s += kPieces[rng() % (sizeof(kPieces) / sizeof(kPieces[0]))];
    }
  }
  return s;
}

inline JsonValue RandomTree(std::mt19937_64& rng, int depth = 0) {
  const int kind = static_cast<int>(rng() % (depth >= 4 ? 4 : 6));
  switch (kind) {
    case 0:
      return JsonValue::Null();
    case 1:
      return JsonValue::Bool(rng() % 2 == 0);
    case 2:
      return JsonValue::Number(RandomDouble(rng));
    case 3:
      return JsonValue::String(RandomString(rng));
    case 4: {
      JsonValue array = JsonValue::Array();
      for (size_t n = rng() % 5; n > 0; --n) {
        array.Append(RandomTree(rng, depth + 1));
      }
      return array;
    }
    default: {
      JsonValue object = JsonValue::Object();
      for (size_t n = rng() % 5; n > 0; --n) {
        object.Set(RandomString(rng, 6), RandomTree(rng, depth + 1));
      }
      return object;
    }
  }
}

/// A random object (top level of every release body).
inline JsonValue RandomObject(std::mt19937_64& rng) {
  JsonValue object = JsonValue::Object();
  for (size_t n = 1 + rng() % 6; n > 0; --n) {
    object.Set(RandomString(rng, 6), RandomTree(rng, 1));
  }
  return object;
}

inline void ReferenceEscape(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline std::string ReferenceNumber(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  if (x == std::floor(x) && std::fabs(x) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(x));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", x);
  }
  return buf;
}

/// The pre-writer Dump, re-derived through the tree's public accessors.
inline std::string ReferenceDump(const JsonValue& v) {
  std::string out;
  switch (v.type()) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v.AsBool() ? "true" : "false";
    case JsonValue::Type::kNumber:
      return ReferenceNumber(v.AsNumber());
    case JsonValue::Type::kString:
      ReferenceEscape(v.AsString(), out);
      return out;
    case JsonValue::Type::kArray:
      out = "[";
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ',';
        out += ReferenceDump(v.at(i));
      }
      return out + "]";
    case JsonValue::Type::kObject: {
      out = "{";
      bool first = true;
      for (const std::string& key : v.ObjectKeys()) {
        if (!first) out += ',';
        first = false;
        ReferenceEscape(key, out);
        out += ':';
        out += ReferenceDump(v.at(key));
      }
      return out + "}";
    }
    case JsonValue::Type::kSerialized:
      return v.Dump();
  }
  return out;
}

}  // namespace dpclustx::testing_json

#endif  // DPCLUSTX_TESTS_JSON_CORPUS_H_
