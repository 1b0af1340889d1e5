#include "util/strings.h"

#include <cstdio>
#include <limits>

namespace folearn {

namespace {

// Accumulates 1..max_digits decimal digits into *value, refusing any value
// above `limit`.
bool ParseDigits(std::string_view digits, size_t max_digits, uint64_t limit,
                 uint64_t* value) {
  if (digits.empty() || digits.size() > max_digits) return false;
  uint64_t result = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (result > (limit - digit) / 10) return false;
    result = result * 10 + digit;
  }
  *value = result;
  return true;
}

}  // namespace

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         (text[begin] == ' ' || text[begin] == '\t' || text[begin] == '\n' ||
          text[begin] == '\r')) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         (text[end - 1] == ' ' || text[end - 1] == '\t' ||
          text[end - 1] == '\n' || text[end - 1] == '\r')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ParseInt64(std::string_view text, int64_t* value) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  uint64_t magnitude = 0;
  if (!ParseDigits(text, 19, negative ? kMax + 1 : kMax, &magnitude)) {
    return false;
  }
  if (negative && magnitude == 0) return false;
  // -(kMax + 1) is INT64_MIN; negate in unsigned arithmetic, then convert.
  *value = negative ? static_cast<int64_t>(0 - magnitude)
                    : static_cast<int64_t>(magnitude);
  return true;
}

bool ParseUint64(std::string_view text, uint64_t* value) {
  return ParseDigits(text, 20, std::numeric_limits<uint64_t>::max(), value);
}

bool ParseHexUint64(std::string_view text, uint64_t* value) {
  if (text.size() != 16) return false;
  uint64_t result = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    result = (result << 4) | static_cast<uint64_t>(digit);
  }
  *value = result;
  return true;
}

std::string FormatHexUint64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace folearn
