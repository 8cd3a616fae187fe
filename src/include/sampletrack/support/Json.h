//===- sampletrack/support/Json.h - Minimal JSON DOM ------------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser producing an owning DOM. It exists
/// for the repo's own machine-readable outputs — the bench trajectory files
/// the perf gate diffs, and the chrome-trace/stats documents the tests
/// schema-check — so it favors simplicity over speed: strings are plain
/// std::string (\uXXXX escapes outside Latin-1 are replaced, not decoded),
/// numbers are double, object keys keep insertion order.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_JSON_H
#define SAMPLETRACK_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sampletrack {
namespace support {

/// One JSON value. Sum-type-by-enum; only the members matching \ref K are
/// meaningful.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool Bool = false;
  double Number = 0;
  std::string Str;
  std::vector<JsonValue> Array;
  /// Insertion-ordered; duplicate keys keep the last value on lookup.
  std::vector<std::pair<std::string, JsonValue>> Object;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *get(std::string_view Key) const;
  /// get() that also requires the member to be a number; \p Found reports
  /// presence.
  double getNumber(std::string_view Key, double Default = 0,
                   bool *Found = nullptr) const;
  /// get() that also requires the member to be a string.
  std::string getString(std::string_view Key,
                        std::string Default = "") const;

  /// Parses \p Text (one complete document; trailing garbage is an error).
  /// On failure returns false and, when \p Error is non-null, describes the
  /// problem with a byte offset.
  static bool parse(std::string_view Text, JsonValue &Out,
                    std::string *Error = nullptr);
  /// Reads and parses a file.
  static bool parseFile(const std::string &Path, JsonValue &Out,
                        std::string *Error = nullptr);
};

/// \p S as the body of a JSON string literal, without the quotes: '"' and
/// '\\' get a backslash, newline and tab their short escapes, and every
/// other control character the \u00XX form.
std::string jsonEscape(std::string_view S);

} // namespace support
} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_JSON_H
