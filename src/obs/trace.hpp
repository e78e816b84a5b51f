// Distributed tracing in simulated time (ISSUE 1 tentpole, half 1).
//
// A request carries a TraceContext (trace id + current span id) inside its
// MessageHeader, so the context crosses every boundary the payload crosses:
// Comch rings, the RDMA wire, SoC-DMA staging copies. Each hop runs the same
// baton protocol -- end the span named by header.cur_span, begin its own span,
// and write the new id back into the in-buffer header -- so no component
// needs a side-table keyed by request. All hop spans parent to the root
// "request" span; the terminal consumer (load driver or ingress response
// handler) ends both the current hop and the root.
//
// Spans record simulated nanoseconds only. The tracer never schedules events
// or charges cores, so an attached tracer cannot perturb simulation results:
// two runs with and without tracing produce identical timings and counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace pd::obs {

class Registry;

/// The 16 bytes of tracing state carried in core::MessageHeader. trace_id 0
/// means "not sampled"; every instrumentation site checks that first.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t root_span = 0;
  std::uint32_t cur_span = 0;

  [[nodiscard]] bool sampled() const { return trace_id != 0; }
};

/// One closed (or still-open) span. Offsets are simulated TimePoints in ns;
/// end_ns < 0 marks a span that was never closed (visible in the export as
/// dur 0 -- a bug in the instrumentation, not in the traced code).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;  // 0 = root
  std::string name;             // "request", "ingress", "fabric", "fn:echo"...
  std::string track;            // display row, e.g. "node1/dne", "node0/rnic"
  sim::TimePoint begin_ns = 0;
  sim::TimePoint end_ns = -1;

  [[nodiscard]] bool closed() const { return end_ns >= 0; }
  [[nodiscard]] sim::Duration duration() const {
    return closed() ? end_ns - begin_ns : 0;
  }
};

/// Collects spans and exports them as Chrome trace-event JSON (loadable in
/// Perfetto / chrome://tracing). Single-threaded, like the simulation.
class Tracer {
 public:
  /// When `registry` is non-null, every closed span additionally records its
  /// duration into the histogram `hop.<name>` -- per-hop latency metrics fall
  /// out of tracing for free.
  explicit Tracer(Registry* registry = nullptr) : registry_(registry) {}

  /// Sample every Nth trace (1 = all, default). 0 disables sampling entirely.
  void set_sample_every(std::uint64_t n) { sample_every_ = n; }

  /// Sharded simulation support: tag this tracer's ids with shard `k` so
  /// span/trace ids stay globally unique without cross-shard coordination
  /// (span ids start at k<<28, trace ids at k<<56). Also enables
  /// foreign-end collection: end_span on an id this tracer never opened
  /// (a span begun on another shard) is remembered instead of ignored, and
  /// resolved after the shard tracers are merged.
  void set_shard(std::uint32_t k);

  /// Append `other`'s spans and foreign ends to this tracer and clear them
  /// from `other`. Call in fixed shard order for a deterministic merge.
  void absorb(Tracer& other);

  /// Close spans whose end was observed on a different shard (collected via
  /// set_shard + absorb). Ids are globally unique, so each foreign end
  /// matches at most one span (the latest, should an id repeat); per-hop
  /// histograms are recorded as usual.
  void resolve_foreign_ends();

  /// Begin a new trace: allocates a trace id (or drops the request per the
  /// sampling rate, returning an unsampled context) and opens the root
  /// "request" span on `track`.
  TraceContext start_trace(std::string_view track, sim::TimePoint now);

  /// Open a span under `parent` (use ctx.root_span to parent hop spans to
  /// the request). Returns the new span id to store into ctx.cur_span.
  std::uint32_t begin_span(std::uint64_t trace_id, std::uint32_t parent,
                           std::string_view name, std::string_view track,
                           sim::TimePoint now);

  /// Close a span this tracer began (found by index: span ids are dense).
  /// Unknown ids are ignored (a baseline system may consume a message whose
  /// producer was instrumented), except on a shard tracer, which keeps them
  /// as foreign ends. A tracer that absorbed others resolves only the spans
  /// it began before absorbing.
  void end_span(std::uint32_t span_id, sim::TimePoint now);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::size_t open_spans() const;

  /// Chrome trace-event JSON: one ph:"X" slice per closed span (ts/dur in
  /// microseconds as the format requires), plus ph:"M" thread_name metadata
  /// so Perfetto labels each track. Deterministic: spans appear in begin
  /// order, tracks are numbered in first-appearance order.
  [[nodiscard]] std::string to_chrome_json() const;
  void write_chrome_json(const std::string& path) const;

  void reset();

 private:
  struct ForeignEnd {
    std::uint32_t span_id = 0;
    sim::TimePoint end_ns = 0;
  };

  static constexpr std::uint32_t kShardShift = 28;
  static constexpr std::uint32_t kLocalMask = (1u << kShardShift) - 1;

  /// Set `s`'s end (no-op when already closed) and record its hop histogram.
  void close(SpanRecord& s, sim::TimePoint now);

  Registry* registry_;
  std::uint64_t sample_every_ = 1;
  std::uint64_t traces_started_ = 0;
  std::uint64_t next_trace_id_ = 1;
  std::uint32_t next_span_id_ = 1;
  std::uint32_t shard_ = 0;
  bool collect_foreign_ends_ = false;
  std::vector<SpanRecord> spans_;
  /// Local id (low 28 bits) of spans_[0] while spans_ holds only spans this
  /// tracer began, in begin order: ids are dense, so end_span indexes.
  std::uint32_t first_local_ = 1;
  std::vector<ForeignEnd> foreign_ends_;
};

}  // namespace pd::obs
