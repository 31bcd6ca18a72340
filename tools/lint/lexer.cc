#include "lexer.h"

#include <cctype>
#include <regex>
#include <sstream>

namespace v6lint {

namespace {

// Suppression markers live in comments: `v6lint: allow(<rule>, ...)`.
// Compiled during static initialization, before the driver's workers
// start lexing: compiling a std::regex fills libstdc++'s shared
// ctype<char>::narrow cache, which concurrent compiles race on.
const std::regex kAllow(R"(v6lint:\s*allow\(([A-Za-z0-9_,\s-]+)\))");

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool hex_digit(char c) {
  return std::isxdigit(static_cast<unsigned char>(c));
}

/// True when the `"` at `text[i]` opens a raw string literal, i.e. it
/// is preceded by `R` (optionally with a u8/u/U/L encoding prefix) and
/// that `R` is not merely the tail of a longer identifier.
bool is_raw_string_open(const std::string& text, std::size_t i) {
  if (i == 0 || text[i - 1] != 'R') return false;
  // Valid spellings end ...R": R, uR, UR, LR, u8R. `start` is the index
  // of the literal's first prefix char; it must not extend a longer
  // identifier (e.g. `FOOBAR"..."` is not a raw string).
  std::size_t start = i - 1;  // index of 'R'
  if (start > 0) {
    const char before = text[start - 1];
    if (before == 'u' || before == 'U' || before == 'L') {
      start -= 1;
    } else if (before == '8' && start >= 2 && text[start - 2] == 'u') {
      start -= 2;
    }
  }
  return start == 0 || !ident_char(text[start - 1]);
}

}  // namespace

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

LexedFile lex(const std::string& raw) {
  LexedFile out;
  const std::size_t n = raw.size();
  out.code.assign(n, ' ');
  out.with_strings.assign(n, ' ');
  // Comment text only (everything else blanked) — scanned afterwards
  // for v6lint suppression markers, then discarded.
  std::string comments(n, ' ');

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_close;  // `)delim"` that terminates the raw literal

  for (std::size_t i = 0; i < n; ++i) {
    const char c = raw[i];
    const char next = i + 1 < n ? raw[i + 1] : '\0';
    if (c == '\n') {
      out.code[i] = '\n';
      out.with_strings[i] = '\n';
      comments[i] = '\n';
      if (state == State::kLineComment) {
        // A backslash-newline splices the comment onto the next line
        // ([lex.phases] p2 runs before comment removal). Tolerate a CR
        // between the backslash and the newline.
        std::size_t b = i;
        while (b > 0 && raw[b - 1] == '\r') --b;
        if (!(b > 0 && raw[b - 1] == '\\')) state = State::kCode;
      }
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' && is_raw_string_open(raw, i)) {
          // Collect the d-char sequence up to '(' and precompute the
          // closing `)delim"`.
          std::size_t j = i + 1;
          std::string delim;
          while (j < n && raw[j] != '(' && delim.size() < 16) {
            delim.push_back(raw[j]);
            ++j;
          }
          out.with_strings[i] = '"';
          if (j < n && raw[j] == '(') {
            raw_close = ")" + delim + "\"";
            state = State::kRawString;
            for (std::size_t k = i + 1; k <= j; ++k) {
              if (raw[k] == '\n') out.with_strings[k] = '\n';
              else out.with_strings[k] = raw[k];
            }
            i = j;
          }
          // Malformed raw prefix (no '(' in 16 chars): treat the rest
          // of the token as ordinary code; the compiler rejects it.
        } else if (c == '"') {
          state = State::kString;
          out.with_strings[i] = '"';
        } else if (c == '\'' && i > 0 && hex_digit(raw[i - 1]) &&
                   (hex_digit(next) || next == '\'')) {
          // Digit separator inside a pp-number (1'000'000, 0xFF'FF):
          // plain code, not a char literal.
          out.code[i] = c;
          out.with_strings[i] = c;
        } else if (c == '\'') {
          state = State::kChar;
          out.with_strings[i] = '\'';
        } else {
          out.code[i] = c;
          out.with_strings[i] = c;
        }
        break;
      case State::kLineComment:
        comments[i] = c;
        break;
      case State::kBlockComment:
        comments[i] = c;
        if (c == '*' && next == '/') {
          comments[i + 1] = '/';
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        out.with_strings[i] = c;
        if (c == '\\' && i + 1 < n) {
          if (next != '\n') out.with_strings[i + 1] = next;
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        out.with_strings[i] = c;
        if (c == '\\' && i + 1 < n) {
          if (next != '\n') out.with_strings[i + 1] = next;
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        // No escapes inside a raw literal: scan for the exact closer.
        if (c == ')' && raw.compare(i, raw_close.size(), raw_close) == 0) {
          const std::size_t end = i + raw_close.size() - 1;
          for (std::size_t k = i; k <= end && k < n; ++k) {
            out.with_strings[k] = raw[k];
          }
          i = end;
          state = State::kCode;
        } else {
          out.with_strings[i] = c;
        }
        break;
    }
  }

  out.code_lines = split_lines(out.code);
  out.string_lines = split_lines(out.with_strings);

  const std::vector<std::string> comment_lines = split_lines(comments);
  for (std::size_t li = 0; li < comment_lines.size(); ++li) {
    const std::string& line = comment_lines[li];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kAllow);
         it != std::sregex_iterator(); ++it) {
      std::string rules = (*it)[1].str();
      std::string rule;
      std::istringstream rs(rules);
      while (std::getline(rs, rule, ',')) {
        const auto b = rule.find_first_not_of(" \t");
        const auto e = rule.find_last_not_of(" \t");
        if (b == std::string::npos) continue;
        out.suppressions.push_back({li + 1, rule.substr(b, e - b + 1)});
      }
    }
  }
  return out;
}

}  // namespace v6lint
