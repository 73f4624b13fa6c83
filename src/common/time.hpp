// Simulated-time primitives.
//
// All subsystems operate on a discrete simulated clock so that experiments
// spanning days of wall-clock time in the paper (e.g. the 2000-minute probe
// intervals of Fig. 8) run in milliseconds. Durations and time points are
// microsecond-resolution signed 64-bit values, which covers ~292k years of
// simulated time without overflow.
#pragma once

#include <compare>
#include <cstdint>
#include <cstdio>
#include <string>

namespace crp {

/// A span of simulated time, in integral microseconds.
///
/// `Duration` doubles as an RTT/latency value throughout the codebase;
/// helper factories (`Micros`, `Millis`, `Seconds`, `Minutes`, `Hours`)
/// construct values readably at call sites.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t micros) : micros_(micros) {}

  [[nodiscard]] constexpr std::int64_t micros() const { return micros_; }
  [[nodiscard]] constexpr double millis() const {
    return static_cast<double>(micros_) / 1e3;
  }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(micros_) / 1e6;
  }
  [[nodiscard]] constexpr double minutes() const {
    return static_cast<double>(micros_) / 60e6;
  }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration& operator+=(Duration rhs) {
    micros_ += rhs.micros_;
    return *this;
  }
  constexpr Duration& operator-=(Duration rhs) {
    micros_ -= rhs.micros_;
    return *this;
  }
  constexpr Duration& operator*=(double f) {
    micros_ = static_cast<std::int64_t>(static_cast<double>(micros_) * f);
    return *this;
  }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration{a.micros_ + b.micros_};
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration{a.micros_ - b.micros_};
  }
  friend constexpr Duration operator*(Duration a, double f) {
    Duration r = a;
    r *= f;
    return r;
  }
  friend constexpr Duration operator*(double f, Duration a) { return a * f; }
  friend constexpr Duration operator/(Duration a, std::int64_t d) {
    return Duration{a.micros_ / d};
  }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.micros_) / static_cast<double>(b.micros_);
  }
  friend constexpr Duration operator-(Duration a) {
    return Duration{-a.micros_};
  }

 private:
  std::int64_t micros_ = 0;
};

[[nodiscard]] constexpr Duration Micros(std::int64_t v) { return Duration{v}; }
[[nodiscard]] constexpr Duration Millis(std::int64_t v) {
  return Duration{v * 1000};
}
[[nodiscard]] constexpr Duration MillisF(double v) {
  return Duration{static_cast<std::int64_t>(v * 1e3)};
}
[[nodiscard]] constexpr Duration Seconds(std::int64_t v) {
  return Duration{v * 1'000'000};
}
[[nodiscard]] constexpr Duration Minutes(std::int64_t v) {
  return Duration{v * 60'000'000};
}
[[nodiscard]] constexpr Duration Hours(std::int64_t v) {
  return Duration{v * 3'600'000'000};
}

/// An absolute point on the simulated timeline (microseconds since the
/// simulation epoch). Kept distinct from `Duration` so that nonsensical
/// arithmetic (adding two time points) does not compile.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t micros) : micros_(micros) {}

  [[nodiscard]] constexpr std::int64_t micros() const { return micros_; }
  [[nodiscard]] constexpr double minutes() const {
    return static_cast<double>(micros_) / 60e6;
  }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(micros_) / 1e6;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  friend constexpr SimTime operator+(SimTime t, Duration d) {
    return SimTime{t.micros_ + d.micros()};
  }
  friend constexpr SimTime operator+(Duration d, SimTime t) { return t + d; }
  friend constexpr SimTime operator-(SimTime t, Duration d) {
    return SimTime{t.micros_ - d.micros()};
  }
  friend constexpr Duration operator-(SimTime a, SimTime b) {
    return Duration{a.micros_ - b.micros_};
  }

  static constexpr SimTime epoch() { return SimTime{0}; }

 private:
  std::int64_t micros_ = 0;
};

/// Renders a duration as a compact human-readable string ("12.4 ms",
/// "3.0 min"). Intended for logs and benchmark tables, not parsing.
[[nodiscard]] inline std::string to_string(Duration d) {
  const double us = static_cast<double>(d.micros());
  const auto fmt = [](double v, const char* unit) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, unit);
    return std::string{buf};
  };
  if (us < 0) {
    std::string negated = "-";
    negated += to_string(Duration{-d.micros()});
    return negated;
  }
  if (us < 1e3) return fmt(us, "us");
  if (us < 1e6) return fmt(us / 1e3, "ms");
  if (us < 60e6) return fmt(us / 1e6, "s");
  return fmt(us / 60e6, "min");
}

}  // namespace crp
