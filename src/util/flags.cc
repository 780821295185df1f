#include "util/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/status.h"

namespace atum::util {

std::optional<uint64_t>
ParseUint(const std::string& text, int base, uint64_t max)
{
    // strtoull would skip leading space and accept a sign (negating
    // "-1" into UINT64_MAX); a flag value starts with a digit.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (*end != '\0' || errno == ERANGE || v > max)
        return std::nullopt;
    return v;
}

uint64_t
FlagUint(const char* tool, const std::string& flag, const std::string& value,
         int base, uint64_t max)
{
    const std::optional<uint64_t> v = ParseUint(value, base, max);
    if (!v) {
        std::fprintf(stderr, "%s: %s wants a number, got '%s'\n", tool,
                     flag.c_str(), value.c_str());
        std::exit(kExitUsage);
    }
    return *v;
}

std::vector<std::string>
SplitCommas(const std::string& s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

}  // namespace atum::util
