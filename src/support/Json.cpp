//===- support/Json.cpp - Minimal JSON DOM parser --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/support/Json.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <locale>
#include <sstream>

namespace sampletrack {
namespace support {

namespace {

class Parser {
public:
  Parser(std::string_view Text) : Text(Text) {}

  bool parse(JsonValue &Out, std::string *Error) {
    skipWs();
    if (!value(Out))
      return fail(Error);
    skipWs();
    if (Pos != Text.size()) {
      Msg = "trailing characters after document";
      return fail(Error);
    }
    return true;
  }

private:
  bool fail(std::string *Error) {
    if (Error)
      *Error = Msg.empty() ? "malformed JSON" : Msg;
    if (Error)
      *Error += " (at byte " + std::to_string(Pos) + ")";
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return false;
    Pos += Lit.size();
    return true;
  }

  bool value(JsonValue &Out) {
    if (Pos >= Text.size()) {
      Msg = "unexpected end of input";
      return false;
    }
    char C = Text[Pos];
    switch (C) {
    case 'n':
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = false;
      return literal("false");
    case '"':
      Out.K = JsonValue::Kind::String;
      return string(Out.Str);
    case '[':
      return array(Out);
    case '{':
      return object(Out);
    default:
      return number(Out);
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= Text.size())
          break;
        char E = Text[Pos++];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          Out += E;
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 > Text.size()) {
            Msg = "truncated \\u escape";
            return false;
          }
          unsigned V = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos++];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              V |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              V |= static_cast<unsigned>(H - 'A' + 10);
            else {
              Msg = "bad \\u escape";
              return false;
            }
          }
          // Latin-1 passes through; anything wider degrades to '?' (the
          // repo's own documents are ASCII).
          Out += V < 0x100 ? static_cast<char>(V) : '?';
          break;
        }
        default:
          Msg = "bad escape";
          return false;
        }
      } else {
        Out += C;
      }
    }
    Msg = "unterminated string";
    return false;
  }

  bool digit() const {
    return Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos]));
  }

  /// Lexes exactly the RFC 8259 number grammar:
  ///   -? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// Anything looser ("+1", "01", "1.", ".5", "1e", "1e+") is rejected with
  /// the position of the offending byte; "1-2" stops after the "1" so the
  /// caller reports the stray "-" instead of silently folding it in.
  bool number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    if (!digit()) {
      Msg = "expected a value";
      Pos = Start;
      return false;
    }
    // int part: no leading zeros ("0" itself is fine, "00"/"01" are not).
    if (Text[Pos] == '0')
      ++Pos;
    else
      while (digit())
        ++Pos;
    if (digit()) {
      Msg = "leading zeros are not allowed in numbers";
      return false;
    }
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (!digit()) {
        Msg = "expected digit after decimal point";
        return false;
      }
      while (digit())
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!digit()) {
        Msg = "expected digit in exponent";
        return false;
      }
      while (digit())
        ++Pos;
    }
    Out.K = JsonValue::Kind::Number;
    return convert(Text.substr(Start, Pos - Start), Out.Number);
  }

  /// Converts an already-validated number token, independent of the
  /// process's LC_NUMERIC locale (std::strtod is locale-sensitive: under a
  /// comma-decimal locale it stops at the '.' and silently truncates).
  bool convert(std::string_view Token, double &Out) {
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    const char *First = Token.data(), *Last = Token.data() + Token.size();
    auto [Ptr, Ec] = std::from_chars(First, Last, Out);
    if (Ec == std::errc() && Ptr == Last)
      return true;
    if (Ec == std::errc::result_out_of_range) {
      // Saturate like strtod: huge magnitudes become +/-HUGE_VAL, tiny
      // ones underflow toward zero. from_chars leaves Out unspecified, so
      // recompute through the locale-proof stream path below.
    }
#endif
    // Fallback for toolchains without floating-point from_chars (and for
    // out-of-range saturation): a stream imbued with the classic locale is
    // immune to LC_NUMERIC too.
    std::istringstream Is{std::string(Token)};
    Is.imbue(std::locale::classic());
    Is >> Out;
    if (!Is.fail() && Is.eof())
      return true;
    // Out-of-range streams fail after setting the saturated value on
    // C++11-conforming libraries; accept that shape rather than reject a
    // grammatically valid number.
    if (Is.fail() && Is.eof())
      return true;
    Msg = "unconvertible number";
    Pos = Token.data() + Token.size() - Text.data();
    return false;
  }

  bool array(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue V;
      skipWs();
      if (!value(V))
        return false;
      Out.Array.push_back(std::move(V));
      skipWs();
      if (Pos >= Text.size()) {
        Msg = "unterminated array";
        return false;
      }
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      Msg = "expected ',' or ']'";
      return false;
    }
  }

  bool object(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        Msg = "expected object key";
        return false;
      }
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':') {
        Msg = "expected ':'";
        return false;
      }
      ++Pos;
      skipWs();
      JsonValue V;
      if (!value(V))
        return false;
      Out.Object.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= Text.size()) {
        Msg = "unterminated object";
        return false;
      }
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      Msg = "expected ',' or '}'";
      return false;
    }
  }

  std::string_view Text;
  size_t Pos = 0;
  std::string Msg;
};

} // namespace

const JsonValue *JsonValue::get(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  const JsonValue *Found = nullptr;
  for (const auto &[Name, V] : Object)
    if (Name == Key)
      Found = &V;
  return Found;
}

double JsonValue::getNumber(std::string_view Key, double Default,
                            bool *Found) const {
  const JsonValue *V = get(Key);
  bool Ok = V && V->isNumber();
  if (Found)
    *Found = Ok;
  return Ok ? V->Number : Default;
}

std::string JsonValue::getString(std::string_view Key,
                                 std::string Default) const {
  const JsonValue *V = get(Key);
  return V && V->isString() ? V->Str : Default;
}

bool JsonValue::parse(std::string_view Text, JsonValue &Out,
                      std::string *Error) {
  Out = JsonValue();
  return Parser(Text).parse(Out, Error);
}

bool JsonValue::parseFile(const std::string &Path, JsonValue &Out,
                          std::string *Error) {
  std::ifstream Is(Path, std::ios::binary);
  if (!Is) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream Os;
  Os << Is.rdbuf();
  return parse(Os.str(), Out, Error);
}

std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static constexpr char Hex[] = "0123456789abcdef";
        Out += "\\u00";
        Out += Hex[C >> 4];
        Out += Hex[C & 0xf];
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace support
} // namespace sampletrack
