/**
 * @file
 * Strict numeric flag parsing shared by the emprof_* tools.
 *
 * std::atof silently turns "abc" into 0.0 and "1e999" into inf, which
 * then flows into thresholds and sample rates as a plausible-looking
 * config.  These helpers accept a value only if the whole string parses
 * and the result is finite and inside the flag's documented range;
 * anything else prints a diagnostic naming the flag and exits 2 (the
 * usage-error code), before any file is touched.  `--help` and `-h`
 * are the one request every tool answers with its usage and exit 0.
 */

#ifndef EMPROF_TOOLS_CLI_PARSE_HPP
#define EMPROF_TOOLS_CLI_PARSE_HPP

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace emprof::tools {

/** True for `--help` and `-h`. */
inline bool
isHelp(const char *arg)
{
    return std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0;
}

[[noreturn]] inline void
badFlag(const char *flag, const char *text, const char *why)
{
    std::fprintf(stderr, "%s: invalid value '%s' (%s)\n", flag, text,
                 why);
    std::exit(2);
}

/** Parse a whole-string finite double in [lo, hi], or exit 2. */
inline double
parseDoubleFlag(const char *flag, const char *text, double lo, double hi)
{
    if (text == nullptr || *text == '\0')
        badFlag(flag, text == nullptr ? "" : text, "empty");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        badFlag(flag, text, "not a number");
    if (errno == ERANGE || !std::isfinite(value))
        badFlag(flag, text, "out of range for a double");
    if (value < lo || value > hi) {
        std::fprintf(stderr,
                     "%s: value %s outside the accepted range "
                     "[%g, %g]\n",
                     flag, text, lo, hi);
        std::exit(2);
    }
    return value;
}

/** Parse a whole-string base-10 uint64 in [lo, hi], or exit 2. */
inline uint64_t
parseU64Flag(const char *flag, const char *text, uint64_t lo,
             uint64_t hi)
{
    if (text == nullptr || *text == '\0')
        badFlag(flag, text == nullptr ? "" : text, "empty");
    // strtoull "accepts" a leading minus by wrapping modulo 2^64;
    // reject any sign explicitly.
    const char *p = text;
    while (*p == ' ' || *p == '\t')
        ++p;
    if (*p == '-' || *p == '+')
        badFlag(flag, text, "must be an unsigned integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        badFlag(flag, text, "not an unsigned integer");
    if (errno == ERANGE)
        badFlag(flag, text, "out of range for a 64-bit integer");
    if (value < lo || value > hi) {
        std::fprintf(stderr,
                     "%s: value %s outside the accepted range "
                     "[%" PRIu64 ", %" PRIu64 "]\n",
                     flag, text, lo, hi);
        std::exit(2);
    }
    return value;
}

/**
 * Parse a byte size with an optional binary/decimal suffix — "64Mi",
 * "512Ki", "2G", "4096" — into bytes, in [lo, hi], or exit 2.
 *
 * Binary suffixes (Ki/Mi/Gi) are powers of 1024; bare K/M/G (and
 * their KB/MB/GB spellings) are powers of 1000.  Suffix letters are
 * case-insensitive ("64ki" == "64Ki"), EXCEPT a trailing lowercase
 * 'b': "64Kib" reads as kibiBITS, which is never what a byte-size
 * flag means, so it is rejected with a pointed message rather than
 * silently read as bytes.  A trailing "B" is accepted ("64MiB").
 */
inline uint64_t
parseSizeFlag(const char *flag, const char *text, uint64_t lo,
              uint64_t hi)
{
    if (text == nullptr || *text == '\0')
        badFlag(flag, text == nullptr ? "" : text, "empty");
    const char *p = text;
    while (*p == ' ' || *p == '\t')
        ++p;
    if (*p == '-' || *p == '+')
        badFlag(flag, text, "must be an unsigned size");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text)
        badFlag(flag, text, "not a size");
    if (errno == ERANGE)
        badFlag(flag, text, "out of range for a 64-bit integer");

    uint64_t unit = 1;
    const char *suffix = end;
    const bool binary = suffix[0] != '\0' &&
                        (suffix[1] == 'i' || suffix[1] == 'I');
    switch (*suffix) {
    case '\0':
        break;
    case 'K':
    case 'k':
        unit = binary ? (uint64_t{1} << 10) : 1000u;
        break;
    case 'M':
    case 'm':
        unit = binary ? (uint64_t{1} << 20) : 1000000u;
        break;
    case 'G':
    case 'g':
        unit = binary ? (uint64_t{1} << 30) : 1000000000u;
        break;
    default:
        badFlag(flag, text,
                "unknown size suffix (use Ki/Mi/Gi or K/M/G)");
    }
    if (*suffix != '\0') {
        ++suffix;
        if (binary)
            ++suffix;
        if (*suffix == 'b')
            badFlag(flag, text,
                    "lowercase 'b' reads as bits, not bytes — write "
                    "e.g. 64Ki or 64KiB");
        if (*suffix == 'B')
            ++suffix;
        if (*suffix != '\0')
            badFlag(flag, text,
                    "unknown size suffix (use Ki/Mi/Gi or K/M/G)");
    }
    if (unit != 1 && value > UINT64_MAX / unit)
        badFlag(flag, text, "size overflows 64 bits");
    const uint64_t bytes = value * unit;
    if (bytes < lo || bytes > hi) {
        std::fprintf(stderr,
                     "%s: value %s outside the accepted range "
                     "[%" PRIu64 ", %" PRIu64 "] bytes\n",
                     flag, text, lo, hi);
        std::exit(2);
    }
    return bytes;
}

/**
 * Parse a duration with a unit suffix — "30s", "250ms", "90us",
 * "500ns", "2m" — into seconds, in [lo, hi] seconds, or exit 2.  A
 * bare number is taken as seconds.
 */
inline double
parseDurationFlag(const char *flag, const char *text, double lo,
                  double hi)
{
    if (text == nullptr || *text == '\0')
        badFlag(flag, text == nullptr ? "" : text, "empty");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text)
        badFlag(flag, text, "not a duration");
    if (errno == ERANGE || !std::isfinite(value))
        badFlag(flag, text, "out of range for a double");

    double unit = 1.0;
    if (std::strcmp(end, "") == 0 || std::strcmp(end, "s") == 0)
        unit = 1.0;
    else if (std::strcmp(end, "ms") == 0)
        unit = 1e-3;
    else if (std::strcmp(end, "us") == 0)
        unit = 1e-6;
    else if (std::strcmp(end, "ns") == 0)
        unit = 1e-9;
    else if (std::strcmp(end, "m") == 0)
        unit = 60.0;
    else
        badFlag(flag, text,
                "unknown duration suffix (use ns/us/ms/s/m)");
    const double seconds = value * unit;
    if (seconds < lo || seconds > hi) {
        std::fprintf(stderr,
                     "%s: value %s outside the accepted range "
                     "[%g, %g] seconds\n",
                     flag, text, lo, hi);
        std::exit(2);
    }
    return seconds;
}

} // namespace emprof::tools

#endif // EMPROF_TOOLS_CLI_PARSE_HPP
