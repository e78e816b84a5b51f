#include "obs/hub.hpp"

namespace pd::obs {

namespace {
thread_local Hub* tl_hub = nullptr;
}  // namespace

Hub* hub() { return tl_hub; }

Hub* install_thread_hub(Hub* h) {
  Hub* prev = tl_hub;
  tl_hub = h;
  return prev;
}

void Hub::on_busy(std::string_view resource, const sim::ProfileFrame& frame,
                  sim::TimePoint submitted, sim::TimePoint begin,
                  sim::Duration scaled_ns, std::uint64_t bytes) {
  if (profiling) profiler.charge(resource, frame, scaled_ns);
  ledger.charge(resource, frame, submitted, begin, scaled_ns, bytes);
}

void Hub::absorb(Hub& shard, sim::TimePoint shard_end) {
  shard.slo.finish(shard_end);
  registry.merge_from(shard.registry);
  tracer.absorb(shard.tracer);
  profiler.absorb(shard.profiler);
  ledger.absorb(shard.ledger);
  slo.absorb(shard.slo);
  // Flight series fold in shard order; the donor recorder is emptied (and
  // its sampler stopped).
  timeseries.merge_from(shard.timeseries);
  shard.registry.reset();
  shard.ledger.reset();
}

}  // namespace pd::obs
