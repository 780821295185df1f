#ifndef ATUM_UTIL_FLAGS_H_
#define ATUM_UTIL_FLAGS_H_

/**
 * @file
 * Command-line value parsing shared by the tools. A flag value is either
 * well formed or a usage error (exit 2): a bare strtoull reads "1e6" as 1
 * and "abc" as 0, and a capture that silently runs one instruction is
 * worse than one that refuses to start.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace atum::util {

/**
 * Parses all of `text` as an unsigned integer in `base` (0 = C literal
 * syntax: decimal, 0x hex, leading-0 octal). Empty text, a sign or
 * leading space, trailing characters and values above `max` give
 * nullopt.
 */
std::optional<uint64_t> ParseUint(const std::string& text, int base = 10,
                                  uint64_t max = UINT64_MAX);

/**
 * ParseUint for the value of the command-line flag `flag`; a malformed
 * value is a usage error: "<tool>: <flag> wants a number, got '<value>'"
 * on stderr and exit kExitUsage (2).
 */
uint64_t FlagUint(const char* tool, const std::string& flag,
                  const std::string& value, int base = 0,
                  uint64_t max = UINT64_MAX);

/** "a,b,,c" -> {"a", "b", "", "c"}; "" -> {""}. */
std::vector<std::string> SplitCommas(const std::string& s);

}  // namespace atum::util

#endif  // ATUM_UTIL_FLAGS_H_
