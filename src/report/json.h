// String helpers shared by every JSON writer (scenario reports, the
// admission service, perf reports).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace e2e {

/// `text` with every character JSON forbids raw escaped: `"` and `\`,
/// newline and tab as \n and \t, and any other byte below 0x20 as \u00XX.
[[nodiscard]] std::string json_escape(std::string_view text);

/// json_escape(text) in double quotes.
[[nodiscard]] std::string json_string(std::string_view text);

/// A 64-bit hash as "0x" followed by 16 lowercase hex digits.
[[nodiscard]] std::string hex_hash(std::uint64_t hash);

}  // namespace e2e
