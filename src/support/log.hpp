// Minimal levelled logger writing to stderr.
//
// Safe under the worker pools: the level is atomic and whole lines are
// emitted under a lock, so concurrent lines never interleave. Benches
// measure wall-clock of the solving path, so a disabled level costs one
// atomic load and nothing else.
#ifndef MONOMAP_SUPPORT_LOG_HPP
#define MONOMAP_SUPPORT_LOG_HPP

#include <sstream>
#include <string>

namespace monomap {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are discarded.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Parse "debug"/"info"/"warn"/"error"/"off" (case-insensitive).
LogLevel parse_log_level(const std::string& text);

namespace detail {
void log_emit(LogLevel level, const std::string& message);
}  // namespace detail

}  // namespace monomap

#define MONOMAP_LOG(level, stream_expr)                              \
  do {                                                               \
    if (static_cast<int>(level) >=                                   \
        static_cast<int>(::monomap::log_level())) {                  \
      std::ostringstream monomap_log_os;                             \
      monomap_log_os << stream_expr;                                 \
      ::monomap::detail::log_emit(level, monomap_log_os.str());      \
    }                                                                \
  } while (false)

#define MONOMAP_DEBUG(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kDebug, stream_expr)
#define MONOMAP_INFO(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kInfo, stream_expr)
#define MONOMAP_WARN(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kWarn, stream_expr)
#define MONOMAP_ERROR(stream_expr) MONOMAP_LOG(::monomap::LogLevel::kError, stream_expr)

#endif  // MONOMAP_SUPPORT_LOG_HPP
