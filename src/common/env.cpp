#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/log.hpp"

namespace vdc::env {

std::optional<std::string> raw(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

std::optional<long long> int_knob(const char* name) {
  const auto value = raw(name);
  if (!value.has_value()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0' || errno == ERANGE || v < 0) {
    VDC_WARN("env", "ignoring ", name, "=\"", *value,
             "\": not a non-negative integer");
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> enum_knob(
    const char* name, std::initializer_list<std::string_view> allowed) {
  const auto value = raw(name);
  if (!value.has_value()) return std::nullopt;
  for (std::string_view option : allowed)
    if (*value == option) return value;
  std::string valid;
  for (std::string_view option : allowed) {
    if (!valid.empty()) valid += '|';
    valid += option;
  }
  VDC_WARN("env", "ignoring ", name, "=\"", *value, "\": expected one of ",
           valid);
  return std::nullopt;
}

}  // namespace vdc::env
