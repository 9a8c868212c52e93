#pragma once
// Validated environment-knob parsing.
//
// Every VDC_* runtime knob goes through these helpers so that a typo'd
// value can never silently pick a mode: a malformed value is rejected with
// a logged warning and the configured default stands. (The pattern started
// as ChunkPolicy::env_override's strict integer parse; this header is the
// shared home so VDC_CHUNK_BYTES, VDC_PIPELINE_DEPTH, VDC_EVENT_QUEUE and
// VDC_PARITY_KERNEL all behave the same way.)

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace vdc::env {

/// Raw lookup: the variable's value, or nullopt when unset.
std::optional<std::string> raw(const char* name);

/// Non-negative integer knob. The WHOLE string must parse (no trailing
/// junk, no sign, no overflow); anything else warns and returns nullopt.
std::optional<long long> int_knob(const char* name);

/// Enumerated knob: the value must match one of `allowed` exactly;
/// anything else warns (listing the valid spellings) and returns nullopt.
std::optional<std::string> enum_knob(
    const char* name, std::initializer_list<std::string_view> allowed);

}  // namespace vdc::env
