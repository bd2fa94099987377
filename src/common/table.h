// Tabular and structured report emission shared by benches, examples and
// the campaign runner: fixed-width ASCII tables, RFC-4180 CSV, and a small
// append-only JSON writer (no external dependencies).
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace higpu {

/// Accumulates rows of strings and prints them with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render the table (header, rule, rows) as a string.
  std::string render() const;

  /// Render the same header + rows as RFC-4180 CSV (fields containing
  /// commas, quotes or newlines are quoted and inner quotes doubled).
  std::string render_csv() const;

  /// Format helpers for numeric cells.
  static std::string fmt(double v, int precision = 3);
  static std::string fmt_ratio(double v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escape one CSV field per RFC 4180 (quote only when needed).
std::string csv_escape(const std::string& field);

/// Escape a string for inclusion inside a JSON string literal.
std::string json_escape(const std::string& s);

/// Minimal streaming JSON writer with automatic comma placement and
/// 2-space indentation. Usage:
///
///   JsonWriter jw;
///   jw.begin_object();
///   jw.field("name", "hotspot");
///   jw.key("results"); jw.begin_array();
///   ...
///   jw.end_array(); jw.end_object();
///   std::string out = jw.str();
///
/// Compact mode (JsonWriter::compact()) emits the same document with no
/// newlines or indentation — the single-line form JSONL records require.
class JsonWriter {
 public:
  JsonWriter() = default;
  /// A writer that emits everything on one line (for JSONL records).
  static JsonWriter compact() {
    JsonWriter jw;
    jw.compact_ = true;
    return jw;
  }

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit `"name":` inside an object; follow with a value or container.
  void key(const std::string& name);

  void value(const std::string& v);
  void value(const char* v) { value(std::string(v)); }
  void value(bool v);
  void value(u64 v);
  void value(i64 v);
  void value(u32 v) { value(static_cast<u64>(v)); }
  void value(i32 v) { value(static_cast<i64>(v)); }
  void value(double v);
  /// Emit a double with enough digits (%.17g) to round-trip bit-exactly
  /// through a parse, instead of the human-friendly %.6g of value(double).
  void value_exact(double v);

  template <typename T>
  void field(const std::string& name, const T& v) {
    key(name);
    value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void pre_value();
  void newline_indent();

  std::string out_;
  std::vector<bool> needs_comma_;  // one level per open container
  bool pending_key_ = false;
  bool compact_ = false;  // single-line output (JSONL records)
};

}  // namespace higpu
