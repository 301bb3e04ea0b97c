/**
 * @file
 * The option table behind every driver's command line.
 *
 * Each driver describes its flags once, as a table of Option entries:
 * the flag, the kind of value it takes (text, a number in a range, a
 * switch, or one of a fixed list), the field the value is stored in,
 * an optional environment fallback, and a help line.  One
 * parser reads argv against that table and one generator prints the
 * usage text from it, so a flag cannot be parsed one way and
 * documented another.
 *
 * Values are strict: a numeric flag accepts a token only when the whole
 * token parses and lies in the entry's range.  Errors name the flag
 * ("--threads: 'two' is not an integer").
 */

#ifndef RASENGAN_TOOLS_OPTIONS_H
#define RASENGAN_TOOLS_OPTIONS_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rasengan::tools {

struct Option
{
    std::string flag;    ///< "--threads"
    std::string metavar; ///< "N", "FILE", "a|b|c"; empty for a switch
    std::string help;
    /** Environment variable read when the flag is absent; "" = none. */
    std::string env;
    /** Parse @p value into the bound field; returns "" or the reason
     *  the value is rejected.  A switch is called with "". */
    std::function<std::string(const std::string &value)> store;
};

using OptionTable = std::vector<Option>;

/** One driver's command line: its name, synopsis and options. */
struct CommandLine
{
    std::string name;     ///< "rasengan_serve"
    std::string synopsis; ///< usage line(s) after the name
    OptionTable options;
};

/** A string or path value, stored verbatim. */
Option text(std::string flag, std::string metavar, std::string help,
            std::string *field);

/** A flag that takes no value and sets @p field to true. */
Option toggle(std::string flag, std::string help, bool *field);

/** One of @p values; the metavar lists them. */
Option choice(std::string flag, std::vector<std::string> values,
              std::string help, std::string *field);

/** Returns @p option with @p env as its environment fallback. */
Option withEnv(Option option, std::string env);

/** "must be >= lo", or "must be in [lo, hi]" when hi is not T's max. */
template <typename T>
std::string
rangeText(T lo, T hi)
{
    auto str = [](T v) {
        if constexpr (std::is_floating_point_v<T>) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%g", v);
            return std::string(buf);
        } else {
            return std::to_string(v);
        }
    };
    if (hi == std::numeric_limits<T>::max())
        return "must be >= " + str(lo);
    return "must be in [" + str(lo) + ", " + str(hi) + "]";
}

/**
 * Parse the whole of @p text into @p out -- a base-10 integer, or a
 * finite decimal when T is floating -- and require it in [lo, hi].
 * Returns "" or why the value is rejected; range errors read
 * "<flag> must be ...".
 */
template <typename T>
std::string
parseNumber(const std::string &flag, const std::string &text, T lo, T hi,
            T *out)
{
    const char *first = text.data();
    const char *last = first + text.size();
    T value{};
    bool inRange = false;
    if constexpr (std::is_floating_point_v<T>) {
        const std::from_chars_result r = std::from_chars(first, last, value);
        if (r.ec == std::errc::invalid_argument || r.ptr != last ||
            !std::isfinite(value))
            return "'" + text + "' is not a finite number";
        inRange = r.ec == std::errc() && value >= lo && value <= hi;
    } else {
        // Negatives parse signed and the rest unsigned, so "-1" for an
        // unsigned field is a range error rather than garbage.
        const bool negative = !text.empty() && text[0] == '-';
        long long sval = 0;
        unsigned long long uval = 0;
        const std::from_chars_result r =
            negative ? std::from_chars(first, last, sval)
                     : std::from_chars(first, last, uval);
        if (r.ec == std::errc::invalid_argument || r.ptr != last)
            return "'" + text + "' is not an integer";
        inRange = r.ec == std::errc() &&
                  (negative ? std::cmp_greater_equal(sval, lo) &&
                                  std::cmp_less_equal(sval, hi)
                            : std::cmp_greater_equal(uval, lo) &&
                                  std::cmp_less_equal(uval, hi));
        value = negative ? static_cast<T>(sval) : static_cast<T>(uval);
    }
    if (!inRange)
        return "'" + text + "' is out of range: " + flag + " " +
               rangeText(lo, hi);
    *out = value;
    return "";
}

/** An integer or real in [lo, hi] stored into @p field. */
template <typename T>
Option
number(std::string flag, std::string metavar, std::string help, T *field,
       std::type_identity_t<T> lo = 0,
       std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    auto store = [flag, field, lo, hi](const std::string &v) {
        return parseNumber(flag, v, lo, hi, field);
    };
    return {std::move(flag), std::move(metavar), std::move(help), "",
            std::move(store)};
}

/**
 * Parse argv[1..argc) against @p table, then resolve the environment
 * fallback of every option the command line did not give.  Returns ""
 * on success, else one diagnostic that starts with the flag (or the
 * environment variable) at fault.
 */
std::string parseOptions(const OptionTable &table, int argc,
                         const char *const *argv);

/** The usage text: synopsis, then one aligned line per option. */
std::string usageText(const CommandLine &cli);

/** Print "<diagnostic>\n" and the usage text to stderr. */
void printUsageError(const CommandLine &cli, const std::string &diagnostic);

/** parseOptions(); on error print it with the usage and exit(1). */
void parseOrExit(const CommandLine &cli, int argc, char **argv);

} // namespace rasengan::tools

#endif // RASENGAN_TOOLS_OPTIONS_H
