#include "obs/profiler.hpp"

#include <fstream>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace pd::obs {

void Profiler::charge(std::string_view resource,
                      const sim::ProfileFrame& frame,
                      sim::Duration scaled_ns) {
  if (scaled_ns <= 0) return;
  const auto ns = static_cast<std::uint64_t>(scaled_ns);
  std::string key;
  key.reserve(resource.size() + frame.component.size() +
              frame.detail.size() + 16);
  key.append(resource);
  key.push_back(';');
  key.append(frame.component);
  key.append(";tenant:");
  key.append(frame.tenant < 0 ? "-" : std::to_string(frame.tenant));
  key.push_back(';');
  key.append(frame.detail.empty() ? std::string_view{"-"} : frame.detail);
  folded_[key] += ns;
  by_resource_[std::string(resource)] += ns;
  total_ns_ += ns;
}

std::uint64_t Profiler::resource_ns(std::string_view resource) const {
  auto it = by_resource_.find(std::string(resource));
  return it == by_resource_.end() ? 0 : it->second;
}

std::uint64_t Profiler::resource_prefix_ns(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (auto it = by_resource_.lower_bound(std::string(prefix));
       it != by_resource_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += it->second;
  }
  return total;
}

std::string Profiler::to_collapsed() const {
  std::string out;
  for (const auto& [key, ns] : folded_) {
    out += key;
    out.push_back(' ');
    out += std::to_string(ns);
    out.push_back('\n');
  }
  return out;
}

void Profiler::write_collapsed(const std::string& path) const {
  std::ofstream f(path);
  PD_CHECK(f.good(), "cannot open " << path << " for writing");
  f << to_collapsed();
}

void Profiler::export_folded(Registry& reg) const {
  // Aggregate resources away: the registry summary answers "who burned the
  // CPU" per (component, tenant); the full per-core split stays in the
  // collapsed-stack export.
  std::map<std::string, std::uint64_t> by_frame;
  for (const auto& [key, ns] : folded_) {
    // key = resource;component;tenant:T;detail
    const auto first = key.find(';');
    const auto second = key.find(';', first + 1);
    const std::string component = key.substr(first + 1, second - first - 1);
    const auto third = key.find(';', second + 1);
    const std::string tenant = key.substr(second + 8, third - second - 8);
    by_frame["component=" + component + ",tenant=" + tenant] += ns;
  }
  for (const auto& [labels, ns] : by_frame) {
    reg.counter("profile.busy_ns", labels).set(ns);
  }
  reg.counter("profile.total_busy_ns").set(total_ns_);
}

void Profiler::absorb(Profiler& other) {
  for (const auto& [key, ns] : other.folded_) folded_[key] += ns;
  for (const auto& [key, ns] : other.by_resource_) by_resource_[key] += ns;
  total_ns_ += other.total_ns_;
  other.reset();
}

void Profiler::reset() {
  folded_.clear();
  by_resource_.clear();
  total_ns_ = 0;
}

}  // namespace pd::obs
