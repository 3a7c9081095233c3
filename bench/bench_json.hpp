// Minimal streaming JSON writer for machine-readable bench output.
//
// The bench harnesses historically printed ASCII tables only; perf tracking
// across PRs needs stable machine-readable records (BENCH_space.json).
// This is deliberately tiny: objects/arrays/keys/scalars, comma management
// via a nesting stack, string escaping per RFC 8259. No reading, no DOM.
#ifndef MONOMAP_BENCH_BENCH_JSON_HPP
#define MONOMAP_BENCH_BENCH_JSON_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/parallel.hpp"
#include "support/simd.hpp"

namespace monomap::bench {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object() {
    separator();
    os_ << '{';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& end_object() {
    stack_.pop_back();
    os_ << '}';
    return *this;
  }
  JsonWriter& begin_array() {
    separator();
    os_ << '[';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& end_array() {
    stack_.pop_back();
    os_ << ']';
    return *this;
  }

  JsonWriter& key(std::string_view name) {
    separator();
    write_string(name);
    os_ << ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    separator();
    write_string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) {
    separator();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(double v) {
    separator();
    if (std::isfinite(v)) {
      // Shortest round-trip-ish: fixed 9 significant digits is plenty for
      // timings and ratios and keeps the output diff-friendly.
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.9g", v);
      os_ << buf;
    } else {
      os_ << "null";  // JSON has no inf/nan
    }
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    separator();
    os_ << v;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    separator();
    os_ << v;
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }

  /// Convenience: key + scalar in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T v) {
    key(name);
    return value(v);
  }

 private:
  void separator() {
    if (pending_value_) {
      pending_value_ = false;  // value directly after a key: no comma
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) os_ << ',';
      stack_.back() = true;
    }
  }

  void write_string(std::string_view s) {
    os_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\r': os_ << "\\r"; break;
        case '\t': os_ << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os_ << buf;
          } else {
            os_ << c;
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<bool> stack_;  // per nesting level: "wrote a first element"
  bool pending_value_ = false;
};

/// Median of a (copied) sample vector; 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// The host facts every BENCH header records: the cores this process may
/// use (its affinity mask) and the SIMD level the bitset kernels dispatch
/// to.
inline void host_fields(JsonWriter& json) {
  json.field("nproc", available_cores());
  json.field("simd", simd::level_name(simd::active_level()));
}

}  // namespace monomap::bench

#endif  // MONOMAP_BENCH_BENCH_JSON_HPP
