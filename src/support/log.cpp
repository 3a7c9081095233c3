#include "support/log.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace monomap {
namespace {

LogLevel initial_level() {
  // MONOMAP_LOG_LEVEL=debug|info|warn|error|off overrides the default, so
  // the solving path can be traced without a recompile or CLI plumbing.
  if (const char* env = std::getenv("MONOMAP_LOG_LEVEL")) {
    return parse_log_level(env);
  }
  return LogLevel::kWarn;
}

std::atomic<LogLevel> g_level{initial_level()};
std::mutex g_emit_mutex;  // one whole line at a time

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?????";
}

}  // namespace

LogLevel log_level() { return g_level.load(); }

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel parse_log_level(const std::string& text) {
  std::string lower(text.size(), '\0');
  std::transform(text.begin(), text.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return LogLevel::kWarn;
}

namespace detail {

void log_emit(LogLevel level, const std::string& message) {
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << "[monomap " << level_tag(level) << "] " << message << '\n';
}

}  // namespace detail
}  // namespace monomap
