#pragma once

// FNV-1a (64-bit) and its 16-hex-digit rendering: the one hash behind every
// fingerprint and row checksum in the codebase (sweep/grid/selection
// fingerprints, request fingerprints, fuzz verdicts, record-log rows).
// Changing either function changes every pinned fingerprint — including
// the offset basis, which is 1469598103934665603 here, not the textbook
// FNV-1a basis 14695981039346656037.

#include <cstdint>
#include <string>
#include <string_view>

namespace ucp::support {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;

/// FNV-1a over `s`, continuing from `h` (chain calls to hash a sequence).
inline std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnv1aOffset) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// `v` as exactly 16 lowercase hex digits.
inline std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Inverse of hex16: false unless `s` is exactly 16 lowercase hex digits.
inline bool parse_hex16(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  out = 0;
  for (const char c : s) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && !(c >= 'a' && c <= 'f')) return false;
    out = (out << 4) | static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  return true;
}

}  // namespace ucp::support
