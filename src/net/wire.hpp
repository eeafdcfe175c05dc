// The ideal (uncongested) wire model: the latency of one message crossing
// an idle fabric, split into the parts the hardware knobs scale.
//
// One definition serves every consumer: Fabric::ideal_latency (calibration
// tests), the flight recorder's dump header, `gputn analyze`'s wire vs
// switch_queue blame split and exemplar traces, and `gputn whatif`'s
// per-wire-knob split. The model mirrors Fabric::send's packetizer: the
// first packet carries the message header, every packet adds the
// per-packet overhead, and packets pipeline across hops, so an uncongested
// message measures exactly total() picoseconds.
//
// The inputs may come from a hand-edited or foreign flight dump, so the
// function is total: zero or absent bandwidth serializes in zero time, a
// zero MTU means one packet, and `hops` == 0 counts as one switch.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/units.hpp"

namespace gputn::net {

/// Wire parameters of a fabric (FabricConfig::wire()), also embedded in
/// flight dumps under "wire".
struct WireParams {
  double bytes_per_sec = 0.0;
  std::int64_t link_latency_ps = 0;
  std::int64_t switch_latency_ps = 0;
  std::uint32_t mtu_bytes = 0;
  std::uint32_t header_bytes = 0;
  std::uint32_t per_packet_overhead = 0;
};

/// An ideal wire latency by the knob that scales each part (picoseconds).
struct WireParts {
  std::int64_t serialization = 0;  ///< link bandwidth
  std::int64_t link = 0;           ///< link propagation
  std::int64_t switching = 0;      ///< switch crossbar latency
  std::int64_t total() const { return serialization + link + switching; }
};

/// Ideal latency of a `payload_bytes` message crossing `hops` switches
/// (1 = the star fabric). The whole message serializes once (packets
/// pipeline), each of the h + 1 links after the first re-adds the lead
/// packet's serialization, and every link and crossbar adds its fixed
/// latency.
inline WireParts ideal_wire(const WireParams& w, std::uint64_t payload_bytes,
                            std::uint32_t hops) {
  auto ser = [&](std::uint64_t bytes) -> std::int64_t {
    if (w.bytes_per_sec <= 0.0) return 0;
    return sim::Bandwidth::bytes_per_sec(w.bytes_per_sec).serialize(bytes);
  };
  std::int64_t h = hops > 0 ? static_cast<std::int64_t>(hops) : 1;
  std::uint64_t wire = w.header_bytes + payload_bytes;
  std::uint64_t mtu =
      w.mtu_bytes > 0 ? w.mtu_bytes : std::max<std::uint64_t>(wire, 1);
  std::uint64_t first_pkt = std::min(wire, mtu) + w.per_packet_overhead;
  std::uint64_t packets = (wire + mtu - 1) / mtu;
  std::uint64_t total_wire = wire + packets * w.per_packet_overhead;
  WireParts p;
  p.serialization = ser(total_wire) + h * ser(first_pkt);
  p.link = (h + 1) * w.link_latency_ps;
  p.switching = h * w.switch_latency_ps;
  return p;
}

}  // namespace gputn::net
