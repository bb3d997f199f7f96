#pragma once

// Strict environment-variable parsing — the single home for every VOCAB_*
// config knob.
//
// Config env vars that silently fall back on a typo are a robustness trap:
// VOCAB_COMM_TIMEOUT_MS=3OOO (letter O) quietly meaning "30 seconds" turns a
// deliberate 3-second test deadline into a half-minute hang. All config vars
// therefore parse strictly — unset (or empty) means the documented default,
// anything set must parse *completely* and be in range, or we fail fast with
// a uniform message naming the variable and the offending text. The guard,
// SIMD-dispatch, thread-pool and verifier knobs all route through these
// helpers so every knob misparses with the same diagnostic shape.

#include <cstdint>
#include <initializer_list>
#include <string>

namespace vocab {

/// Parse env var `name` as a base-10 integer in [min_value, max_value].
/// Unset or empty returns `fallback`; anything else must be a full-string
/// integer in range or CheckError is thrown.
[[nodiscard]] std::int64_t int_from_env(const char* name, std::int64_t fallback,
                                        std::int64_t min_value, std::int64_t max_value);

/// Parse env var `name` as a strictly positive integer. Unset or empty
/// returns `fallback`; anything else must be a full-string base-10 integer
/// in [1, max_value] or CheckError is thrown.
[[nodiscard]] std::int64_t positive_int_from_env(const char* name, std::int64_t fallback,
                                                 std::int64_t max_value = 1000000000);

/// Parse env var `name` as a boolean. Unset or empty returns `fallback`;
/// otherwise the value must be one of 0/1/false/true/off/on/no/yes
/// (case-insensitive) or CheckError is thrown.
[[nodiscard]] bool bool_from_env(const char* name, bool fallback);

/// Parse env var `name` as one of `allowed` (exact match). Unset or empty
/// returns `fallback`; any other value throws CheckError listing the
/// accepted spellings.
[[nodiscard]] std::string choice_from_env(const char* name, const char* fallback,
                                          std::initializer_list<const char*> allowed);

/// Enforce the failure-detection timeout lattice
///   VOCAB_HEARTBEAT_MS < VOCAB_HEARTBEAT_TIMEOUT_MS < VOCAB_COMM_TIMEOUT_MS
/// given the three *resolved* values (env or default, in milliseconds).
/// An inverted lattice misattributes failures — a comm timeout at or below
/// the heartbeat timeout reports "deadlock" for what is really a dead peer,
/// and a heartbeat period at or above its timeout declares every live peer
/// dead — so a violation throws CheckError naming all three knobs and their
/// current values. Called once per TransportConfig::from_env resolution
/// (i.e. by the backend that detects failures: tcp).
void validate_timeout_lattice(std::int64_t heartbeat_ms, std::int64_t heartbeat_timeout_ms,
                              std::int64_t comm_timeout_ms);

}  // namespace vocab
