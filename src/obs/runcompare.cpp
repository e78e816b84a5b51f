#include "obs/runcompare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/check.hpp"

namespace pd::obs {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    expect_end();
    return v;
  }

  void for_each_element(std::string_view key,
                        const std::function<void(const JsonValue&)>& fn) {
    skip_ws();
    if (peek() != '{') fail("expected a top-level object");
    ++pos_;
    bool found = false;
    skip_ws();
    if (peek() != '}') {
      while (true) {
        skip_ws();
        const std::string k = parse_string();
        skip_ws();
        expect(':');
        if (k == key && !found) {
          found = true;
          for_each_in_array(fn);
        } else {
          (void)parse_value();
        }
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect('}');
    expect_end();
    PD_CHECK(found, "JSON object lacks the array member " << key);
  }

 private:
  void for_each_in_array(const std::function<void(const JsonValue&)>& fn) {
    skip_ws();
    if (peek() != '[') fail("member is not an array");
    ++pos_;
    skip_ws();
    if (peek() != ']') {
      while (true) {
        fn(parse_value());
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect(']');
  }

  void expect_end() {
    skip_ws();
    PD_CHECK(pos_ == text_.size(),
             "trailing garbage at byte " << pos_ << " of JSON input");
  }

  [[noreturn]] void fail(const char* what) {
    std::ostringstream oss;
    oss << what << " at byte " << pos_ << " of JSON input";
    throw CheckFailure(oss.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.members.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.elements.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_literal("null")) return v;
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* begin = text_.data() + pos_;
      char* end = nullptr;
      v.kind = JsonValue::Kind::kNumber;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("malformed number");
      pos_ += static_cast<std::size_t>(end - begin);
      return v;
    }
    fail("unexpected character");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode (no surrogate-pair recombination; our own
          // exporters never emit astral-plane characters).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void flatten_into(const JsonValue& v, const std::string& path,
                  std::map<std::string, FlatValue>& out) {
  switch (v.kind) {
    case JsonValue::Kind::kObject:
      if (v.members.empty()) {
        out[path.empty() ? "(root)" : path] = FlatValue{false, 0.0, "{}"};
        return;
      }
      for (const auto& [key, member] : v.members) {
        flatten_into(member, path.empty() ? key : path + "." + key, out);
      }
      return;
    case JsonValue::Kind::kArray:
      if (v.elements.empty()) {
        out[path.empty() ? "(root)" : path] = FlatValue{false, 0.0, "[]"};
        return;
      }
      for (std::size_t i = 0; i < v.elements.size(); ++i) {
        flatten_into(v.elements[i], path + "[" + std::to_string(i) + "]", out);
      }
      return;
    case JsonValue::Kind::kNumber:
      out[path] = FlatValue{true, v.number, {}};
      return;
    case JsonValue::Kind::kString:
      out[path] = FlatValue{false, 0.0, v.string};
      return;
    case JsonValue::Kind::kBool:
      out[path] = FlatValue{false, 0.0, v.boolean ? "true" : "false"};
      return;
    case JsonValue::Kind::kNull:
      out[path] = FlatValue{false, 0.0, "null"};
      return;
  }
}

bool key_selected(const std::string& key, const DiffOptions& opt) {
  for (const std::string& ig : opt.ignore) {
    if (key.find(ig) != std::string::npos) return false;
  }
  if (opt.only.empty()) return true;
  for (const std::string& on : opt.only) {
    if (key.find(on) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

void json_for_each_element(std::string_view text, std::string_view key,
                           const std::function<void(const JsonValue&)>& fn) {
  Parser(text).for_each_element(key, fn);
}

JsonValue json_parse_file(const std::string& path) {
  std::ifstream f(path);
  PD_CHECK(f.good(), "cannot open " << path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return json_parse(ss.str());
}

std::map<std::string, FlatValue> flatten_json(const JsonValue& v) {
  std::map<std::string, FlatValue> out;
  flatten_into(v, {}, out);
  return out;
}

DiffReport diff_runs(const JsonValue& a, const JsonValue& b,
                     const DiffOptions& opt) {
  const auto fa = flatten_json(a);
  const auto fb = flatten_json(b);
  DiffReport report;

  for (const auto& [key, va] : fa) {
    if (!key_selected(key, opt)) continue;
    const auto it = fb.find(key);
    if (it == fb.end()) {
      report.findings.push_back({key, "missing from candidate", 0.0, 0.0});
      continue;
    }
    ++report.compared;
    const FlatValue& vb = it->second;
    if (va.is_number != vb.is_number) {
      report.findings.push_back({key, "type changed", 0.0, 0.0});
      continue;
    }
    if (!va.is_number) {
      if (va.text != vb.text) {
        report.findings.push_back(
            {key, "\"" + va.text + "\" -> \"" + vb.text + "\"", 0.0, 0.0});
      }
      continue;
    }
    const double delta = std::fabs(va.number - vb.number);
    if (delta == 0.0) continue;
    const double scale = std::max(std::fabs(va.number), std::fabs(vb.number));
    const double rel = scale > 0.0 ? delta / scale : 0.0;
    if (delta <= opt.abs_tol || rel <= opt.rel_tol) continue;
    char detail[128];
    std::snprintf(detail, sizeof detail, "%.6g -> %.6g (%+.2f%%)", va.number,
                  vb.number,
                  (vb.number - va.number) / (scale > 0 ? scale : 1.0) * 100.0);
    report.findings.push_back({key, detail, delta, rel});
  }
  for (const auto& [key, vb] : fb) {
    (void)vb;
    if (!key_selected(key, opt)) continue;
    if (fa.find(key) == fa.end()) {
      report.findings.push_back({key, "missing from baseline", 0.0, 0.0});
    }
  }
  return report;
}

std::string DiffReport::format(std::size_t max_lines) const {
  std::string out;
  std::vector<const DiffFinding*> order;
  order.reserve(findings.size());
  for (const DiffFinding& f : findings) order.push_back(&f);
  std::stable_sort(order.begin(), order.end(),
                   [](const DiffFinding* x, const DiffFinding* y) {
                     const bool xs = x->delta_abs == 0.0 && x->delta_rel == 0.0;
                     const bool ys = y->delta_abs == 0.0 && y->delta_rel == 0.0;
                     if (xs != ys) return xs;  // structural first
                     return x->delta_rel > y->delta_rel;
                   });
  std::size_t shown = 0;
  for (const DiffFinding* f : order) {
    if (shown++ >= max_lines) {
      out += "  ... " + std::to_string(order.size() - max_lines) +
             " more finding(s)\n";
      break;
    }
    out += "  " + f->key + ": " + f->detail + "\n";
  }
  char tail[96];
  std::snprintf(tail, sizeof tail, "%zu leaves compared, %zu difference(s)\n",
                compared, findings.size());
  out += tail;
  return out;
}

}  // namespace pd::obs
