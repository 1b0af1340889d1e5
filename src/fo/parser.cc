#include "fo/parser.h"

#include <cctype>
#include <charconv>
#include <vector>

namespace folearn {

namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kLParen,
  kRParen,
  kComma,
  kEquals,
  kAnd,
  kOr,
  kNot,
  kImplies,
  kDot,
  kGreaterEquals,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  size_t offset;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  // Tokenises the whole input; returns false on an illegal character.
  bool Tokenize(std::vector<Token>& tokens, std::string* error) {
    size_t pos = 0;
    while (pos < text_.size()) {
      char c = text_[pos];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = pos;
        while (pos < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos]))) {
          ++pos;
        }
        tokens.push_back(
            {TokenKind::kNumber, std::string(text_.substr(start, pos - start)),
             start});
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos;
        while (pos < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos])) ||
                text_[pos] == '_')) {
          ++pos;
        }
        tokens.push_back(
            {TokenKind::kIdent, std::string(text_.substr(start, pos - start)),
             start});
        continue;
      }
      switch (c) {
        case '(':
          tokens.push_back({TokenKind::kLParen, "(", pos});
          break;
        case ')':
          tokens.push_back({TokenKind::kRParen, ")", pos});
          break;
        case ',':
          tokens.push_back({TokenKind::kComma, ",", pos});
          break;
        case '=':
          tokens.push_back({TokenKind::kEquals, "=", pos});
          break;
        case '>':
          if (pos + 1 < text_.size() && text_[pos + 1] == '=') {
            tokens.push_back({TokenKind::kGreaterEquals, ">=", pos});
            ++pos;
            break;
          }
          if (error != nullptr) {
            *error = "expected '>=' at offset " + std::to_string(pos);
          }
          return false;
        case '&':
          tokens.push_back({TokenKind::kAnd, "&", pos});
          break;
        case '|':
          tokens.push_back({TokenKind::kOr, "|", pos});
          break;
        case '!':
          tokens.push_back({TokenKind::kNot, "!", pos});
          break;
        case '.':
          tokens.push_back({TokenKind::kDot, ".", pos});
          break;
        case '-':
          if (pos + 1 < text_.size() && text_[pos + 1] == '>') {
            tokens.push_back({TokenKind::kImplies, "->", pos});
            ++pos;
            break;
          }
          [[fallthrough]];
        default:
          if (error != nullptr) {
            *error = "illegal character '" + std::string(1, c) +
                     "' at offset " + std::to_string(pos);
          }
          return false;
      }
      ++pos;
    }
    tokens.push_back({TokenKind::kEnd, "", text_.size()});
    return true;
  }

 private:
  std::string_view text_;
};

bool IsReserved(const std::string& word) {
  return word == "E" || word == "exists" || word == "forall" ||
         word == "true" || word == "false" || word == "in" ||
         word == "existsset" || word == "forallset";
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string* error)
      : tokens_(std::move(tokens)), error_(error) {}

  FormulaRef ParseTop() {
    FormulaRef f = ParseImplication();
    if (f != nullptr && !Match(TokenKind::kEnd)) {
      SetError("unexpected trailing input");
      return nullptr;
    }
    return f;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }

  const Token& Advance() { return tokens_[index_++]; }

  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++index_;
    return true;
  }

  void SetError(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ =
          message + " at offset " + std::to_string(Peek().offset);
    }
  }

  FormulaRef ParseImplication() {
    FormulaRef left = ParseOr();
    if (left == nullptr) return nullptr;
    if (Match(TokenKind::kImplies)) {
      FormulaRef right = ParseImplication();  // right-associative
      if (right == nullptr) return nullptr;
      return Formula::Implies(std::move(left), std::move(right));
    }
    return left;
  }

  FormulaRef ParseOr() {
    FormulaRef left = ParseAnd();
    if (left == nullptr) return nullptr;
    std::vector<FormulaRef> parts = {std::move(left)};
    while (Match(TokenKind::kOr)) {
      FormulaRef next = ParseAnd();
      if (next == nullptr) return nullptr;
      parts.push_back(std::move(next));
    }
    return parts.size() == 1 ? parts[0] : Formula::Or(std::move(parts));
  }

  FormulaRef ParseAnd() {
    FormulaRef left = ParseUnary();
    if (left == nullptr) return nullptr;
    std::vector<FormulaRef> parts = {std::move(left)};
    while (Match(TokenKind::kAnd)) {
      FormulaRef next = ParseUnary();
      if (next == nullptr) return nullptr;
      parts.push_back(std::move(next));
    }
    return parts.size() == 1 ? parts[0] : Formula::And(std::move(parts));
  }

  FormulaRef ParseUnary() {
    if (Match(TokenKind::kNot)) {
      FormulaRef inner = ParseUnary();
      if (inner == nullptr) return nullptr;
      return Formula::Not(std::move(inner));
    }
    if (Match(TokenKind::kLParen)) {
      FormulaRef inner = ParseImplication();
      if (inner == nullptr) return nullptr;
      if (!Match(TokenKind::kRParen)) {
        SetError("expected ')'");
        return nullptr;
      }
      return inner;
    }
    if (Peek().kind != TokenKind::kIdent) {
      SetError("expected formula");
      return nullptr;
    }
    std::string word = Advance().text;
    if (word == "true") return Formula::True();
    if (word == "false") return Formula::False();
    if (word == "exists" || word == "forall") {
      // Counting quantifier: exists>=K var. body.
      int threshold = -1;
      if (word == "exists" && Match(TokenKind::kGreaterEquals)) {
        if (Peek().kind != TokenKind::kNumber) {
          SetError("expected threshold after 'exists>='");
          return nullptr;
        }
        const std::string digits = Advance().text;
        const auto [end, ec] = std::from_chars(
            digits.data(), digits.data() + digits.size(), threshold);
        if (ec != std::errc() || end != digits.data() + digits.size()) {
          SetError("counting threshold out of range: " + digits);
          return nullptr;
        }
      }
      if (Peek().kind != TokenKind::kIdent || IsReserved(Peek().text)) {
        SetError("expected variable after quantifier");
        return nullptr;
      }
      std::string var = Advance().text;
      if (!Match(TokenKind::kDot)) {
        SetError("expected '.' after quantified variable");
        return nullptr;
      }
      FormulaRef body = ParseImplication();
      if (body == nullptr) return nullptr;
      if (threshold >= 0) {
        return Formula::CountExists(threshold, std::move(var),
                                    std::move(body));
      }
      return word == "exists" ? Formula::Exists(std::move(var), std::move(body))
                              : Formula::Forall(std::move(var),
                                                std::move(body));
    }
    if (word == "existsset" || word == "forallset") {
      if (Peek().kind != TokenKind::kIdent || IsReserved(Peek().text)) {
        SetError("expected set variable after set quantifier");
        return nullptr;
      }
      std::string set_var = Advance().text;
      if (!Match(TokenKind::kDot)) {
        SetError("expected '.' after set variable");
        return nullptr;
      }
      FormulaRef body = ParseImplication();
      if (body == nullptr) return nullptr;
      return word == "existsset"
                 ? Formula::ExistsSet(std::move(set_var), std::move(body))
                 : Formula::ForallSet(std::move(set_var), std::move(body));
    }
    if (word == "E") {
      if (!Match(TokenKind::kLParen)) {
        SetError("expected '(' after 'E'");
        return nullptr;
      }
      std::string x;
      std::string y;
      if (!ParseVariable(&x) || !Match(TokenKind::kComma) ||
          !ParseVariable(&y) || !Match(TokenKind::kRParen)) {
        SetError("malformed edge atom");
        return nullptr;
      }
      return Formula::Edge(std::move(x), std::move(y));
    }
    // `word` is either a colour atom `word(var)` or the left side of an
    // equality `word = var`.
    if (Match(TokenKind::kLParen)) {
      std::string x;
      if (!ParseVariable(&x) || !Match(TokenKind::kRParen)) {
        SetError("malformed colour atom");
        return nullptr;
      }
      return Formula::Color(std::move(word), std::move(x));
    }
    if (Match(TokenKind::kEquals)) {
      std::string y;
      if (!ParseVariable(&y)) {
        SetError("malformed equality atom");
        return nullptr;
      }
      return Formula::Equals(std::move(word), std::move(y));
    }
    if (Peek().kind == TokenKind::kIdent && Peek().text == "in") {
      Advance();  // 'in'
      if (Peek().kind != TokenKind::kIdent || IsReserved(Peek().text)) {
        SetError("expected set variable after 'in'");
        return nullptr;
      }
      return Formula::SetMember(std::move(word), Advance().text);
    }
    SetError("expected '(' or '=' after identifier '" + word + "'");
    return nullptr;
  }

  bool ParseVariable(std::string* out) {
    if (Peek().kind != TokenKind::kIdent || IsReserved(Peek().text)) {
      return false;
    }
    *out = Advance().text;
    return true;
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  std::string* error_;
};

}  // namespace

std::optional<FormulaRef> ParseFormula(std::string_view text,
                                       std::string* error) {
  if (error != nullptr) error->clear();
  std::vector<Token> tokens;
  if (!Lexer(text).Tokenize(tokens, error)) return std::nullopt;
  Parser parser(std::move(tokens), error);
  FormulaRef formula = parser.ParseTop();
  if (formula == nullptr) return std::nullopt;
  return formula;
}

FormulaRef MustParseFormula(std::string_view text) {
  std::string error;
  std::optional<FormulaRef> formula = ParseFormula(text, &error);
  FOLEARN_CHECK(formula.has_value())
      << "parse error in '" << std::string(text) << "': " << error;
  return *formula;
}

}  // namespace folearn
