#include "obs/trace_reader.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "obs/runcompare.hpp"

namespace pd::obs {
namespace {

std::int64_t round_ns(double us) {
  return static_cast<std::int64_t>(std::llround(us * 1e3));
}

/// Member `key` of object `v` when it is a number, else 0 (the exporter
/// omits ids it does not know).
double number_of(const JsonValue& v, std::string_view key) {
  const JsonValue* m = v.find(key);
  return m != nullptr && m->kind == JsonValue::Kind::kNumber ? m->number : 0;
}

/// Member `key` of object `v` when it is a string, else "".
std::string string_of(const JsonValue& v, std::string_view key) {
  const JsonValue* m = v.find(key);
  return m != nullptr && m->kind == JsonValue::Kind::kString ? m->string : "";
}

}  // namespace

std::vector<ReadSpan> read_chrome_trace(const std::string& json) {
  static const JsonValue kNoArgs;
  std::map<int, std::string> tid_names;
  std::vector<ReadSpan> spans;
  json_for_each_element(json, "traceEvents", [&](const JsonValue& ev) {
    PD_CHECK(ev.kind == JsonValue::Kind::kObject,
             "trace event must be an object");
    const JsonValue* args = ev.find("args");
    const JsonValue& a = args != nullptr ? *args : kNoArgs;
    const std::string ph = string_of(ev, "ph");
    const int tid = static_cast<int>(number_of(ev, "tid"));
    if (ph == "M" && string_of(ev, "name") == "thread_name") {
      tid_names[tid] = string_of(a, "name");
    } else if (ph == "X") {
      ReadSpan s;
      s.name = string_of(ev, "name");
      auto it = tid_names.find(tid);
      s.track = it != tid_names.end() ? it->second : std::to_string(tid);
      s.begin_ns = round_ns(number_of(ev, "ts"));
      s.dur_ns = round_ns(number_of(ev, "dur"));
      s.trace_id = static_cast<std::uint64_t>(number_of(a, "trace_id"));
      s.span_id = static_cast<std::uint32_t>(number_of(a, "span_id"));
      s.parent_id = static_cast<std::uint32_t>(number_of(a, "parent_id"));
      spans.push_back(std::move(s));
    }
  });
  return spans;
}

std::vector<ReadSpan> read_chrome_trace_file(const std::string& path) {
  std::ifstream f(path);
  PD_CHECK(f.good(), "cannot open " << path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return read_chrome_trace(ss.str());
}

}  // namespace pd::obs
