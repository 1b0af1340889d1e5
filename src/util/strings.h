#ifndef FOLEARN_UTIL_STRINGS_H_
#define FOLEARN_UTIL_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace folearn {

// Joins `items` with `separator` using operator<< for each element.
template <typename Container>
std::string Join(const Container& items, std::string_view separator) {
  std::ostringstream out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out << separator;
    out << item;
    first = false;
  }
  return out.str();
}

// Splits `text` on `delimiter`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char delimiter);

// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

// The strict integer parsers every flag, request field, journal, checkpoint
// and text format goes through. Decimal: an optional '-' (ParseInt64
// only), then 1–19 (ParseInt64) or 1–20 (ParseUint64) ASCII digits and
// nothing else — no '+', no whitespace, no trailing bytes, no negative
// zero — within the type's range. Hex: exactly the 16 lower-case digits
// FormatHexUint64 prints. Each returns false on anything else and then
// leaves *value untouched.
bool ParseInt64(std::string_view text, int64_t* value);
bool ParseUint64(std::string_view text, uint64_t* value);
bool ParseHexUint64(std::string_view text, uint64_t* value);
std::string FormatHexUint64(uint64_t value);

}  // namespace folearn

#endif  // FOLEARN_UTIL_STRINGS_H_
