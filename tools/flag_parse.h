// Command-line flag helpers shared by dpclustx_serve and dpclustx_router.
//
// Each tool walks argv itself and offers every value flag to these parsers
// in turn; a parser that recognizes `argv[*i]` consumes its value, advances
// `*i`, and returns true. A missing or malformed value is a usage error:
// the message and the tool's usage text go to stderr and the process
// exits 2.

#ifndef DPCLUSTX_TOOLS_FLAG_PARSE_H_
#define DPCLUSTX_TOOLS_FLAG_PARSE_H_

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace dpclustx::tools {

/// A tool's command line plus the usage text its errors print.
struct FlagArgs {
  int argc = 0;
  char** argv = nullptr;
  const char* usage = "";
};

[[noreturn]] inline void UsageError(const char* usage,
                                    const std::string& message) {
  std::cerr << message << "\n" << usage;
  std::exit(2);
}

/// Parses a non-negative decimal flag value into `out`'s type; anything
/// else — a sign, a non-digit, an empty string, a value `out` cannot hold —
/// is a usage error.
template <typename Int>
bool ParseIntFlag(const FlagArgs& args, int* i, const char* name, Int* out) {
  if (std::strcmp(args.argv[*i], name) != 0) return false;
  if (*i + 1 >= args.argc) {
    UsageError(args.usage, std::string(name) + " needs a value");
  }
  const char* text = args.argv[++*i];
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  if (ec != std::errc() || ptr != end || text == end || *text == '-') {
    UsageError(args.usage, std::string(name) +
                               " needs a non-negative integer, got '" + text +
                               "'");
  }
  return true;
}

inline bool ParseStringFlag(const FlagArgs& args, int* i, const char* name,
                            std::string* out) {
  if (std::strcmp(args.argv[*i], name) != 0) return false;
  if (*i + 1 >= args.argc) {
    UsageError(args.usage, std::string(name) + " needs a value");
  }
  *out = args.argv[++*i];
  return true;
}

}  // namespace dpclustx::tools

#endif  // DPCLUSTX_TOOLS_FLAG_PARSE_H_
