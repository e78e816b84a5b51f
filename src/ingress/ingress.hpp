// Common client-facing surface of every cluster ingress variant, so the
// HTTP load generator (wrk analog) can drive Palladium's gateway and the
// K-/F-Ingress baselines interchangeably (§4.1.3, §4.3).
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "common/ids.hpp"
#include "sim/core.hpp"

namespace pd::ingress {

/// Worker-pool autoscaling shared by the F-stack gateways (§3.6): every
/// check period, add a worker when average *useful* CPU utilization is
/// above the up threshold and remove one below the down threshold.
inline constexpr double kScaleUpUtil = 0.60;
inline constexpr double kScaleDownUtil = 0.30;
inline constexpr sim::Duration kScaleCheckPeriod = 1'000'000'000;  // 1 s

class IngressFrontend {
 public:
  virtual ~IngressFrontend() = default;

  /// Attach a client TCP connection originating on `client_node` /
  /// `client_core`. `to_client` receives HTTP response bytes. Returns the
  /// connection id used for sends. The TCP handshake is performed
  /// asynchronously; sends before it completes are rejected.
  virtual int attach_client(NodeId client_node, sim::Core& client_core,
                            std::function<void(std::string_view)> to_client) = 0;

  /// Send serialized HTTP request bytes on an attached connection.
  virtual void client_send(int client, std::string bytes) = 0;

  /// Expose a chain at a URL target (e.g. "/home" -> Home Query).
  virtual void expose_chain(std::string target, std::uint32_t chain_id) = 0;
};

}  // namespace pd::ingress
