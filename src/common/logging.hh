/**
 * @file
 * Error reporting helpers, modeled on the gem5 logging split: warn()
 * for suspicious-but-survivable conditions, fatal() for user errors
 * (clean exit), and panic() for internal invariant violations
 * (abort). Each prints one line to stderr.
 */

#ifndef GOPIM_COMMON_LOGGING_HH
#define GOPIM_COMMON_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace gopim {

namespace detail {

/** Emit one formatted log line to stderr with the given tag. */
void emit(const char *tag, const std::string &msg);

/** Fold a parameter pack into a single string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Warning about questionable but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit("warn", detail::concat(std::forward<Args>(args)...));
}

/**
 * Unrecoverable user-level error (bad configuration, invalid argument).
 * Prints the message and exits with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emit("fatal", detail::concat(std::forward<Args>(args)...));
    std::exit(1);
}

/**
 * Internal invariant violation: something that should never happen
 * regardless of user input. Prints the message and aborts.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit("panic", detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/** Assert-like helper that panics with a message when cond is false. */
#define GOPIM_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond))                                                       \
            ::gopim::panic("assertion failed: ", #cond, ": ",              \
                           ##__VA_ARGS__);                                 \
    } while (0)

} // namespace gopim

#endif // GOPIM_COMMON_LOGGING_HH
