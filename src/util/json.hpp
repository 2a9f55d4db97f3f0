// Minimal JSON document model, parser and serializer.
//
// Used by the injection log (equivalent injection, paper Section IV-C) and
// by bench harnesses to emit machine-readable results. Objects preserve
// insertion order so logs diff cleanly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ckptfi {

/// A JSON value: null, bool, number (double or int64), string, array, object.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(std::int64_t v) : type_(Type::Int), int_(v) {}
  Json(std::uint64_t v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_number() const { return type_ == Type::Int || type_ == Type::Double; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  // Accessors; all throw FormatError on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  // Array API.
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t i) const;
  const std::vector<Json>& items() const;

  // Object API (insertion-ordered).
  Json& operator[](const std::string& key);  ///< creates Null entry if absent
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Serialize. indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Deepest array/object nesting parse() accepts. The parser recurses once
  /// per level, so hostile input ("[[[[...") must fail cleanly long before
  /// the stack runs out.
  static constexpr std::size_t kMaxDepth = 512;

  /// Parse a JSON text; throws FormatError on malformed input, including
  /// nesting deeper than kMaxDepth.
  static Json parse(const std::string& text);

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace ckptfi
