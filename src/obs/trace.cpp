#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace pd::obs {

TraceContext Tracer::start_trace(std::string_view track, sim::TimePoint now) {
  ++traces_started_;
  if (sample_every_ == 0 ||
      (traces_started_ - 1) % sample_every_ != 0) {
    return {};  // unsampled: trace_id 0, every hop skips it
  }
  TraceContext ctx;
  ctx.trace_id = next_trace_id_++;
  ctx.root_span = begin_span(ctx.trace_id, 0, "request", track, now);
  ctx.cur_span = ctx.root_span;
  return ctx;
}

std::uint32_t Tracer::begin_span(std::uint64_t trace_id, std::uint32_t parent,
                                 std::string_view name, std::string_view track,
                                 sim::TimePoint now) {
  PD_CHECK(trace_id != 0, "begin_span on an unsampled trace");
  SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = next_span_id_++;
  rec.parent_id = parent;
  rec.name = std::string(name);
  rec.track = std::string(track);
  rec.begin_ns = now;
  spans_.push_back(std::move(rec));
  return spans_.back().span_id;
}

void Tracer::close(SpanRecord& s, sim::TimePoint now) {
  if (s.closed()) return;  // double-close is a no-op
  PD_CHECK(now >= s.begin_ns,
           "span \"" << s.name << "\" closed before it began");
  s.end_ns = now;
  if (registry_ != nullptr) {
    registry_->histogram("hop." + s.name).record(s.duration());
  }
}

void Tracer::end_span(std::uint32_t span_id, sim::TimePoint now) {
  if (span_id == 0) return;
  // This tracer's own spans sit at spans_[local id - first_local_]. The
  // id check rejects ids tagged with another shard; a local id below
  // first_local_ wraps to an index past the end.
  const std::uint32_t i = (span_id & kLocalMask) - first_local_;
  if (i < spans_.size() && spans_[i].span_id == span_id) {
    close(spans_[i], now);
    return;
  }
  // Not begun here. On a shard tracer the begin lives on another shard:
  // remember the end for post-merge resolution. Otherwise (e.g. mixed
  // baseline/palladium runs) ignore, as producers may outrun consumers.
  if (collect_foreign_ends_) foreign_ends_.push_back({span_id, now});
}

void Tracer::set_shard(std::uint32_t k) {
  shard_ = k;
  next_span_id_ = (k << kShardShift) | 1u;
  next_trace_id_ = (static_cast<std::uint64_t>(k) << 56) | 1u;
  collect_foreign_ends_ = true;
}

void Tracer::absorb(Tracer& other) {
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  foreign_ends_.insert(foreign_ends_.end(), other.foreign_ends_.begin(),
                       other.foreign_ends_.end());
  traces_started_ += other.traces_started_;
  other.spans_.clear();
  other.foreign_ends_.clear();
  other.first_local_ = other.next_span_id_ & kLocalMask;
}

void Tracer::resolve_foreign_ends() {
  if (foreign_ends_.empty()) return;
  // One pass maps every awaited id to its span; a later span with the same
  // id overwrites an earlier one.
  constexpr std::size_t kNone = ~std::size_t{0};
  std::unordered_map<std::uint32_t, std::size_t> pos;
  pos.reserve(foreign_ends_.size());
  for (const ForeignEnd& fe : foreign_ends_) pos.emplace(fe.span_id, kNone);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (auto it = pos.find(spans_[i].span_id); it != pos.end()) it->second = i;
  }
  for (const ForeignEnd& fe : foreign_ends_) {
    const std::size_t i = pos.at(fe.span_id);
    if (i != kNone) close(spans_[i], fe.end_ns);
  }
  foreign_ends_.clear();
}

std::size_t Tracer::open_spans() const {
  std::size_t n = 0;
  for (const auto& s : spans_) {
    if (!s.closed()) ++n;
  }
  return n;
}

std::string Tracer::to_chrome_json() const {
  // Assign tid numbers per track in first-appearance order so the export is
  // stable run-to-run.
  std::map<std::string, int> track_tid;
  std::vector<std::string> track_order;
  for (const auto& s : spans_) {
    if (track_tid.emplace(s.track, 0).second) track_order.push_back(s.track);
  }
  int tid = 1;
  for (const auto& t : track_order) track_tid[t] = tid++;

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  for (const auto& t : track_order) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", track_tid[t], t.c_str());
    out += buf;
    first = false;
  }
  for (const auto& s : spans_) {
    if (!s.closed()) continue;
    // Chrome trace events use microseconds; keep sub-us precision.
    std::snprintf(
        buf, sizeof buf,
        "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
        "\"span_id\":%u,\"parent_id\":%u}}",
        first ? "" : ",\n", track_tid[s.track], s.name.c_str(),
        static_cast<double>(s.begin_ns) / 1e3,
        static_cast<double>(s.duration()) / 1e3,
        static_cast<unsigned long long>(s.trace_id), s.span_id, s.parent_id);
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  PD_CHECK(f.good(), "cannot open " << path << " for writing");
  f << to_chrome_json();
}

void Tracer::reset() {
  traces_started_ = 0;
  next_trace_id_ = (static_cast<std::uint64_t>(shard_) << 56) | 1u;
  next_span_id_ = (shard_ << kShardShift) | 1u;
  spans_.clear();
  foreign_ends_.clear();
  first_local_ = 1;
}

}  // namespace pd::obs
