// Minimal JSON emission (no parsing): a streaming writer with correct
// string escaping and structural validation via FFS_CHECK. Used by the
// harness's JSON report and the CLI's --json output.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace fluidfaas {

/// Append `s` to `out` escaped as the body of a JSON string (no quotes).
inline void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Prefix();
    out_ += '{';
    stack_.push_back(Frame::kObject);
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() {
    FFS_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                  "EndObject without matching BeginObject");
    FFS_CHECK_MSG(!key_pending_, "dangling key");
    out_ += '}';
    Pop();
    return *this;
  }
  JsonWriter& BeginArray() {
    Prefix();
    out_ += '[';
    stack_.push_back(Frame::kArray);
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndArray() {
    FFS_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kArray,
                  "EndArray without matching BeginArray");
    out_ += ']';
    Pop();
    return *this;
  }

  JsonWriter& Key(const std::string& k) {
    FFS_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                  "Key outside an object");
    FFS_CHECK_MSG(!key_pending_, "two keys in a row");
    Comma();
    AppendString(k);
    out_ += ':';
    key_pending_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& v) {
    Prefix();
    AppendString(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }
  JsonWriter& Value(double v) {
    Prefix();
    // JSON has no NaN/Inf; clamp to null.
    if (v != v || v > 1e308 || v < -1e308) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.10g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& Value(std::int64_t v) {
    Prefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(std::size_t v) {
    return Value(static_cast<std::int64_t>(v));
  }
  JsonWriter& Value(int v) { return Value(static_cast<std::int64_t>(v)); }
  JsonWriter& Value(bool v) {
    Prefix();
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Splice a pre-rendered JSON value verbatim (e.g. a nested document
  /// produced by another writer). The caller guarantees it is valid JSON.
  JsonWriter& Raw(const std::string& json) {
    Prefix();
    out_ += json;
    return *this;
  }

  /// Finish and return the document; the writer must be balanced.
  std::string Take() {
    FFS_CHECK_MSG(stack_.empty(), "unterminated object/array");
    return std::move(out_);
  }

 private:
  enum class Frame { kObject, kArray };

  void Comma() {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void Prefix() {
    if (key_pending_) {
      key_pending_ = false;
      return;
    }
    if (!stack_.empty()) {
      FFS_CHECK_MSG(stack_.back() == Frame::kArray,
                    "object member needs a Key()");
      Comma();
    }
  }
  void Pop() {
    stack_.pop_back();
    first_.pop_back();
  }
  void AppendString(const std::string& s) {
    out_ += '"';
    AppendJsonEscaped(out_, s);
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;
  bool key_pending_ = false;
};

}  // namespace fluidfaas
