#include "net/fabric.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "sim/shard.hpp"

namespace gputn::net {

Fabric::Fabric(sim::Simulator& sim, FabricConfig config)
    : sim_(&sim), config_(std::move(config)) {}

void Fabric::set_sharding(sim::ShardEngine* engine,
                          std::vector<int> node_shard) {
  if (!sinks_.empty()) {
    throw std::logic_error(
        "fabric: set_sharding after nodes were attached (the partition "
        "decides which simulator owns each node's links)");
  }
  engine_ = engine;
  node_shard_ = std::move(node_shard);
  if (engine_ != nullptr) {
    for (int s : node_shard_) {
      if (s < 0 || s >= engine_->shards()) {
        throw std::invalid_argument("fabric: node shard out of range");
      }
    }
  }
}

sim::Simulator& Fabric::node_sim(NodeId id) {
  if (engine_ == nullptr) return *sim_;
  return engine_->shard(node_shard_[static_cast<std::size_t>(id)]);
}

int Fabric::node_shard_of(NodeId id) const {
  if (engine_ == nullptr) return 0;
  return node_shard_[static_cast<std::size_t>(id)];
}

sim::Simulator& Fabric::switch_sim(int s) {
  if (engine_ == nullptr) return *sim_;
  return engine_->shard(switch_shard_[static_cast<std::size_t>(s)]);
}

NodeId Fabric::add_node(MessageSink* sink) {
  if (topo_ != nullptr) {
    throw std::logic_error("fabric: add_node after the switch graph was "
                           "finalized (all nodes must attach before traffic)");
  }
  NodeId id = static_cast<NodeId>(sinks_.size());
  if (engine_ != nullptr &&
      static_cast<std::size_t>(id) >= node_shard_.size()) {
    throw std::logic_error("fabric: more nodes attached than the shard map "
                           "passed to set_sharding covers");
  }
  sinks_.push_back(sink);
  flow_seq_.push_back(0);
  messages_by_src_.push_back(0);
  bytes_by_src_.push_back(0);
  // The uplink lives on the transmitting node's shard: its pump runs where
  // the NIC submits. The matching downlink is built at finalize(), once the
  // egress switch's shard is known.
  uplinks_.push_back(std::make_unique<Link>(
      node_sim(id), "up" + std::to_string(id), config_.bandwidth,
      config_.link_latency,
      [this, id](Packet&& p) { inject(id, std::move(p)); }));
  if (fault_provider_) {
    uplinks_.back()->set_fault_injector(
        fault_provider_(uplinks_.back()->name()));
  }
  return id;
}

void Fabric::finalize() {
  if (topo_ != nullptr) return;
  topo_ = TopologyFactory::instance().make(config_.topology, node_count());
  router_ = RouterFactory::instance().make(config_.routing);
  int nsw = topo_->switch_count();

  // Shard assignment for switches. A trunk hand-off is a direct crossbar
  // call (Switch::arrive with the transmitting switch's credit return), so
  // switches connected by trunks must share a shard: union-find the trunk
  // graph, then round-robin the components over the shards. Only
  // host <-> edge-switch links can cross shards.
  switch_shard_.assign(static_cast<std::size_t>(nsw), 0);
  const int S = engine_ != nullptr ? engine_->shards() : 1;
  if (S > 1) {
    std::vector<int> parent(static_cast<std::size_t>(nsw));
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(
                parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
      }
      return x;
    };
    for (int s = 0; s < nsw; ++s) {
      for (int p = 0; p < topo_->radix(s); ++p) {
        PortPeer peer = topo_->peer(s, p);
        if (peer.kind == PortPeer::Kind::kSwitch) {
          int a = find(s), b = find(peer.index);
          if (a != b) parent[static_cast<std::size_t>(a)] = b;
        }
      }
    }
    std::vector<int> comp_shard(static_cast<std::size_t>(nsw), -1);
    int comps = 0;
    for (int s = 0; s < nsw; ++s) {
      int r = find(s);
      if (comp_shard[static_cast<std::size_t>(r)] < 0) {
        comp_shard[static_cast<std::size_t>(r)] = comps++ % S;
      }
      switch_shard_[static_cast<std::size_t>(s)] =
          comp_shard[static_cast<std::size_t>(r)];
    }
  }

  switches_.reserve(static_cast<std::size_t>(nsw));
  for (int s = 0; s < nsw; ++s) {
    switches_.push_back(std::make_unique<Switch>(
        switch_sim(s), s, topo_->radix(s), config_.switch_latency,
        config_.credits_per_port));
    switches_.back()->set_router(topo_.get(), router_.get());
  }
  host_port_.resize(sinks_.size());
  for (NodeId n = 0; n < node_count(); ++n) host_port_[n] = topo_->host(n);
  downlinks_.resize(sinks_.size());
  bool cross_shard_edges = false;
  for (int s = 0; s < nsw; ++s) {
    for (int p = 0; p < topo_->radix(s); ++p) {
      PortPeer peer = topo_->peer(s, p);
      if (peer.kind == PortPeer::Kind::kNode) {
        // Host slots beyond the attached node count stay idle (unwired).
        if (peer.index < node_count()) {
          NodeId n = peer.index;
          // The downlink lives on the egress switch's shard (the switch
          // submits into it); its terminus splits when the node lives
          // elsewhere: the host-side delivery hops shards, the egress
          // credit return stays local.
          downlinks_[static_cast<std::size_t>(n)] = std::make_unique<Link>(
              switch_sim(s), "down" + std::to_string(n), config_.bandwidth,
              config_.link_latency,
              [this, n](Packet&& pk) { deliver(n, std::move(pk)); });
          Link* down = downlinks_[static_cast<std::size_t>(n)].get();
          if (fault_provider_) {
            down->set_fault_injector(fault_provider_(down->name()));
          }
          int node_sh = node_shard_of(n);
          int sw_sh = switch_shard_[static_cast<std::size_t>(s)];
          if (engine_ != nullptr && node_sh != sw_sh) {
            cross_shard_edges = true;
            down->set_remote([this, n, s, p, node_sh, sw_sh](sim::Tick when,
                                                            Packet&& pk) {
              Switch* esw = switches_[static_cast<std::size_t>(s)].get();
              switch_sim(s).schedule_at(
                  when, [esw, p] { esw->credit_return(p); });
              engine_->post(sw_sh, node_sh, when,
                            [this, n, pk = std::move(pk)]() mutable {
                              deliver_host(n, std::move(pk));
                            });
            });
          }
          switches_[static_cast<std::size_t>(s)]->attach_output(p, down);
        }
      } else if (peer.kind == PortPeer::Kind::kSwitch) {
        // One directed trunk per transmitting port; the receiving switch
        // dequeues into its crossbar and returns the port's credit there.
        // Both ends share a shard by construction (one trunk component).
        trunks_.push_back(std::make_unique<Link>(
            switch_sim(s), "sw" + std::to_string(s) + "p" + std::to_string(p),
            config_.bandwidth, config_.link_latency,
            [this, t = peer.index, s, p](Packet&& pk) {
              switches_[static_cast<std::size_t>(t)]->arrive(
                  std::move(pk), switches_[static_cast<std::size_t>(s)].get(),
                  p);
            }));
        if (fault_provider_) {
          trunks_.back()->set_fault_injector(
              fault_provider_(trunks_.back()->name()));
        }
        switches_[static_cast<std::size_t>(s)]->attach_output(
            p, trunks_.back().get());
      }
    }
  }
  // Cross-shard uplink termini: the packet hops to the edge switch's shard.
  if (engine_ != nullptr) {
    for (NodeId n = 0; n < node_count(); ++n) {
      int sw = host_port_[static_cast<std::size_t>(n)].sw;
      int node_sh = node_shard_of(n);
      int sw_sh = switch_shard_[static_cast<std::size_t>(sw)];
      if (node_sh != sw_sh) {
        cross_shard_edges = true;
        uplinks_[static_cast<std::size_t>(n)]->set_remote(
            [this, n, node_sh, sw_sh](sim::Tick when, Packet&& pk) {
              engine_->post(node_sh, sw_sh, when,
                            [this, n, pk = std::move(pk)]() mutable {
                              inject(n, std::move(pk));
                            });
            });
      }
    }
    if (S > 1) {
      // Conservative lookahead: the minimum propagation over the links
      // whose endpoints live on different shards (every cross-shard event
      // is a packet that paid at least that propagation). No cross-shard
      // edge means the shards are independent; an effectively unbounded
      // lookahead lets each run to completion in one window.
      sim::Tick la =
          cross_shard_edges ? config_.link_latency : sim::kTickMax / 2;
      if (la <= 0) {
        throw std::invalid_argument(
            "fabric: parallel runs need a positive link latency (the "
            "conservative lookahead is the cross-shard wire propagation)");
      }
      engine_->set_lookahead(la);
    }
  }
  apply_trace();
}

const Topology& Fabric::topology() {
  finalize();
  return *topo_;
}

const Router& Fabric::router() {
  finalize();
  return *router_;
}

int Fabric::switch_count() {
  finalize();
  return static_cast<int>(switches_.size());
}

Switch& Fabric::switch_at(int id) {
  finalize();
  return *switches_.at(static_cast<std::size_t>(id));
}

int Fabric::hop_count(NodeId src, NodeId dst) {
  finalize();
  return topo_->hop_count(src, dst);
}

void Fabric::inject(NodeId src, Packet&& p) {
  switches_[static_cast<std::size_t>(host_port_[static_cast<std::size_t>(src)]
                                         .sw)]
      ->arrive(std::move(p), nullptr, 0);
}

void Fabric::deliver(NodeId dst, Packet&& p) {
  deliver_host(dst, std::move(p));
  // Host ejection is the downstream dequeue of the egress switch port:
  // return its credit (per packet, after delivery bookkeeping).
  const HostPort& hp = host_port_[static_cast<std::size_t>(dst)];
  switches_[static_cast<std::size_t>(hp.sw)]->credit_return(hp.port);
}

void Fabric::deliver_host(NodeId dst, Packet&& p) {
  auto flight = p.flight;
  if (--flight->packets_remaining == 0) {
    flight->msg.corrupted = flight->corrupted;
    flight->msg.t_rx = node_sim(dst).now();
    flight->msg.t_switch = flight->t_switch;
    if (trace_ != nullptr && flight->msg.flow != 0 &&
        flight->msg.t_wire >= 0) {
      // One span per message (not per packet) covering its whole time on
      // the wire, on the destination's downlink lane.
      std::string lane = "net.down" + std::to_string(flight->msg.dst);
      trace_->span(lane, "msg", "net", flight->msg.t_wire, flight->msg.t_rx,
                   flow_args(flight->msg));
      trace_->flow_step(lane, "msg", "flow", flight->msg.t_wire,
                        flight->msg.flow);
    }
    flight->sink->deliver(std::move(flight->msg));
  }
}

void Fabric::set_fault_injector_provider(
    std::function<FaultInjector*(const std::string&)> provider) {
  fault_provider_ = std::move(provider);
  auto apply = [&](Link& l) {
    l.set_fault_injector(fault_provider_ ? fault_provider_(l.name())
                                         : nullptr);
  };
  for (auto& l : uplinks_) apply(*l);
  for (auto& l : downlinks_) apply(*l);
  for (auto& l : trunks_) apply(*l);
}

std::uint64_t Fabric::messages_sent() const {
  return std::accumulate(messages_by_src_.begin(), messages_by_src_.end(),
                         std::uint64_t{0});
}

std::uint64_t Fabric::bytes_sent() const {
  return std::accumulate(bytes_by_src_.begin(), bytes_by_src_.end(),
                         std::uint64_t{0});
}

void Fabric::export_stats(sim::StatRegistry& reg) const {
  reg.counter("net.messages") += messages_sent();
  reg.counter("net.bytes") += bytes_sent();
  std::uint64_t sw_packets = 0, stalls = 0;
  for (const auto& s : switches_) {
    sw_packets += s->packets_forwarded();
    stalls += s->credit_stalls();
  }
  reg.counter("net.switch.packets") += sw_packets;
  if (stalls > 0) reg.counter("net.credit_stalls") += stalls;
  std::uint64_t link_bytes = 0, link_packets = 0, link_drops = 0,
                link_corrupt = 0;
  auto per_link = [&](const Link& l) {
    link_bytes += l.bytes_transmitted();
    link_packets += l.packets_transmitted();
    link_drops += l.packets_dropped();
    link_corrupt += l.packets_corrupted();
    std::string p = "net.link." + l.name() + ".";
    reg.counter(p + "bytes") += l.bytes_transmitted();
    reg.counter(p + "packets") += l.packets_transmitted();
    if (l.packets_dropped() > 0) reg.counter(p + "drops") += l.packets_dropped();
    if (l.packets_corrupted() > 0) {
      reg.counter(p + "corruptions") += l.packets_corrupted();
    }
    l.util().export_into(reg, "util.link." + l.name(), sim_->now());
  };
  for (const auto& l : uplinks_) per_link(*l);
  for (const auto& l : downlinks_) per_link(*l);
  for (const auto& l : trunks_) per_link(*l);
  reg.counter("net.link.bytes") += link_bytes;
  reg.counter("net.link.packets") += link_packets;
  reg.counter("net.link.drops") += link_drops;
  reg.counter("net.link.corruptions") += link_corrupt;
  // Per-port credit/queue ledgers carry meaning only under flow control;
  // export the ports that saw traffic or pressure.
  if (config_.credits_per_port > 0) {
    for (const auto& s : switches_) {
      for (int p = 0; p < s->radix(); ++p) {
        const obs::BusyTracker& u = s->port_util(p);
        if (u.ops() == 0 && u.queue_max() == 0) continue;
        u.export_into(reg,
                      "util.sw." + std::to_string(s->id()) + ".port" +
                          std::to_string(p),
                      sim_->now());
      }
    }
  }
}

void Fabric::apply_trace() {
  bool single = switches_.size() == 1;
  for (auto& s : switches_) {
    s->set_trace(trace_, single ? "net.switch"
                                : "net.sw" + std::to_string(s->id()));
  }
}

void Fabric::set_trace(sim::TraceRecorder* trace) {
  trace_ = trace;
  apply_trace();
}

void Fabric::send(Message&& msg) {
  if (msg.src < 0 || msg.src >= node_count() || msg.dst < 0 ||
      msg.dst >= node_count()) {
    throw std::out_of_range("fabric: send with unknown src/dst node");
  }
  finalize();
  // Observability stamps. NICs stamp `flow` at first tx; anything else that
  // reaches the wire (ACK/NACK control traffic, direct fabric users) gets a
  // fallback id here. t_wire is re-stamped per wire copy, so a retransmit
  // measures its own wire time; t_wire_first survives retransmission (the
  // reliability layer pre-stamps it on the window copy), so the spread
  // between the two is the total retransmission delay.
  if (msg.flow == 0) msg.flow = next_flow(msg.src);
  msg.t_wire = node_sim(msg.src).now();
  if (msg.t_wire_first < 0) msg.t_wire_first = msg.t_wire;
  // Deterministic-route switch count for the analyzer's per-hop ideal wire
  // model; candidate minimality makes it route-independent (topology_api).
  msg.hops = static_cast<std::uint32_t>(topo_->hop_count(msg.src, msg.dst));
  ++messages_by_src_[static_cast<std::size_t>(msg.src)];
  std::uint64_t wire = config_.header_bytes + msg.payload_bytes();
  bytes_by_src_[static_cast<std::size_t>(msg.src)] += wire;

  auto flight = std::make_shared<MessageInFlight>();
  flight->sink = sinks_[static_cast<std::size_t>(msg.dst)];
  NodeId src = msg.src;
  flight->msg = std::move(msg);

  // Packetize: first packet carries the header; each packet adds the
  // per-packet overhead on the wire.
  std::uint64_t remaining = wire;
  int packets = 0;
  Link* up = uplinks_[static_cast<std::size_t>(src)].get();
  std::vector<Packet> pkts;
  while (remaining > 0) {
    std::uint64_t chunk = remaining < config_.mtu_bytes ? remaining
                                                        : config_.mtu_bytes;
    remaining -= chunk;
    Packet p;
    p.flight = flight;
    p.wire_bytes = static_cast<std::uint32_t>(chunk) + config_.per_packet_overhead;
    p.last = remaining == 0;
    pkts.push_back(std::move(p));
    ++packets;
  }
  flight->packets_remaining = packets;
  for (auto& p : pkts) up->submit(std::move(p));
}

sim::Tick Fabric::ideal_latency(std::uint64_t payload_bytes) const {
  return ideal_wire(config_.wire(), payload_bytes, 1).total();
}

sim::Tick Fabric::ideal_latency(std::uint64_t payload_bytes, NodeId src,
                                NodeId dst) {
  finalize();
  auto hops = static_cast<std::uint32_t>(topo_->hop_count(src, dst));
  return ideal_wire(config_.wire(), payload_bytes, hops).total();
}

}  // namespace gputn::net
