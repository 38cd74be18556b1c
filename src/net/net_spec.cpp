#include "net/net_spec.hpp"

#include <cmath>

namespace ghum::net {

Status NetSpec::validate() const noexcept {
  const double bws[] = {wire_bandwidth_Bps, bcopy_bandwidth_Bps,
                        gdr_get_bandwidth_Bps, gdr_put_bandwidth_Bps,
                        distance_bandwidth_Bps};
  for (const double bw : bws) {
    if (!(bw > 0.0) || !std::isfinite(bw)) return Status::kErrorNetConfig;
  }
  const sim::Picos lats[] = {wire_latency,  proto_single,  proto_multi,
                             rndv_offload,  rndv_rtr,      rndv_rts,
                             proto_sw,      rkey_ptr,      send_bcopy,
                             send_cqe,      send_db,       send_wqe_fetch,
                             send_wqe_post, am_short,      am_bcopy,
                             rcache_overhead, gdr_latency, gdr_rcache_overhead};
  for (const sim::Picos t : lats) {
    if (t < 0) return Status::kErrorNetConfig;
  }
  return Status::kSuccess;
}

}  // namespace ghum::net
