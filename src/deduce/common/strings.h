#ifndef DEDUCE_COMMON_STRINGS_H_
#define DEDUCE_COMMON_STRINGS_H_

#include <charconv>
#include <cstdarg>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace deduce {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// True if `s` starts with / ends with `prefix`/`suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view s);

/// Strict number parsing, for an integer type or double: all of `text`
/// must be one decimal number that fits T, with no surrounding whitespace,
/// no '+', and no sign at all for an unsigned T. Returns false, leaving
/// `*out` unchanged, otherwise. (std::atoi reads "8x8" as 8 and strtoull
/// reads "-5" as 2^64-5; this rejects both.)
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  if (text.empty()) return false;
  T v{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

/// Appends `s` escaped for use inside a JSON string literal. Control bytes
/// and every byte outside printable ASCII escape as \u00XX (the byte's
/// Latin-1 codepoint): names can carry arbitrary bytes, e.g. a corrupted
/// symbol decoded off the wire, and raw high bytes would make the output
/// invalid UTF-8.
void AppendJsonEscaped(std::string_view s, std::string* out);

}  // namespace deduce

#endif  // DEDUCE_COMMON_STRINGS_H_
