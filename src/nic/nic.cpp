#include "nic/nic.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight.hpp"

namespace gputn::nic {

namespace {

/// The one message -> flight-leg mapping: every stamp a delivered message
/// carries, captured before its payload is moved out for the deposit DMA
/// (t_deposit stays -1 until the deposit completes).
obs::FlightLeg flight_leg(const net::Message& m) {
  return obs::FlightLeg{.flow = m.flow,
                        .src = m.src,
                        .dst = m.dst,
                        .kind = m.kind,
                        .bytes = m.payload_bytes(),
                        .retransmits = m.retransmits,
                        .hops = m.hops,
                        .t_trigger = m.t_trigger,
                        .t_post = m.t_post,
                        .t_ring = m.t_ring,
                        .t_cmd = m.t_cmd,
                        .t_pop = m.t_pop,
                        .t_admit = m.t_admit,
                        .t_wire_first = m.t_wire_first,
                        .t_wire = m.t_wire,
                        .t_switch = m.t_switch,
                        .t_rx = m.t_rx};
}

}  // namespace

Nic::Nic(sim::Simulator& sim, mem::Memory& memory, net::Fabric& fabric,
         NicConfig config)
    : sim_(&sim),
      mem_(&memory),
      fabric_(&fabric),
      config_(config),
      node_id_(fabric.add_node(this)),
      cmd_queue_(sim),
      rx_queue_(sim),
      tx_dma_(sim, memory, config.dma_bandwidth, config.dma_startup),
      rx_dma_(sim, memory, config.dma_bandwidth, config.dma_startup),
      cq_(sim),
      reliability_(sim, fabric, node_id_, config.reliability, stats_,
                   [this](net::Message&& m) { rx_queue_.push(std::move(m)); }),
      log_("nic" + std::to_string(node_id_), sim.now_ptr()) {
  if (config_.rate_limit.ops_per_sec > 0.0) {
    rate_ = std::make_unique<TokenBucket>(sim, config_.rate_limit);
  }
  sim_->spawn(tx_loop(), log_.component() + ".tx");
  sim_->spawn(rx_loop(), log_.component() + ".rx");
}

void Nic::ring_doorbell(Command cmd) {
  // A direct ring is post and flush in one: posted == rung.
  ring_doorbell(std::move(cmd), sim_->now());
}

void Nic::ring_doorbell(Command cmd, sim::Tick posted) {
  ++stats_.counter("doorbells");
  // Stage the command and schedule a [this]-only event rather than moving
  // the (large) Command variant through the queue: the doorbell latency is
  // constant, so pop-front order equals ring order, and the event always
  // fits EventFn's inline storage.
  QueuedCmd qc;
  qc.cmd = std::move(cmd);
  qc.posted = posted;
  qc.rung = sim_->now();
  doorbell_staging_.push_back(std::move(qc));
  sim_->schedule_in(config_.doorbell_latency, [this] {
    cmd_util_.enqueue(sim_->now());
    QueuedCmd front = std::move(doorbell_staging_.front());
    doorbell_staging_.pop_front();
    front.enqueued = sim_->now();
    cmd_queue_.push(std::move(front));
  });
}

void Nic::enqueue_internal(Command cmd) {
  enqueue_internal(std::move(cmd), -1, false);
}

void Nic::enqueue_internal(Command cmd, sim::Tick trigger_at,
                           bool trigger_mmio) {
  ++stats_.counter("internal_cmds");
  cmd_util_.enqueue(sim_->now());
  cmd_queue_.push(
      QueuedCmd{std::move(cmd), sim_->now(), trigger_at, trigger_mmio});
}

void Nic::stamp_tx(net::Message& msg, sim::Tick t_cmd, sim::Tick t_trigger,
                   bool trigger_mmio) {
  msg.flow = fabric_->next_flow(node_id_);
  msg.t_cmd = t_cmd;
  msg.t_trigger = t_trigger;
  if (trace_ == nullptr) return;
  std::string args = net::flow_args(msg);
  if (msg.t_post >= 0 && msg.t_ring > msg.t_post) {
    // Satellite view of Qp batching: how long this op waited in the
    // software queue before its batch's doorbell was rung.
    trace_->span(trace_lane_, "qp:batch-wait", "nic", msg.t_post, msg.t_ring,
                 args);
  }
  if (t_trigger >= 0 && trigger_mmio && !gpu_lane_.empty()) {
    // Triggered by a GPU store: the flow starts inside the kernel's span
    // on the gpu lane, steps through the trigger unit's match span, then
    // through this NIC's tx span.
    trace_->flow_begin(gpu_lane_, "msg", "flow", t_trigger, msg.flow, args);
    if (!trig_lane_.empty() && t_cmd >= 0) {
      trace_->flow_step(trig_lane_, "msg", "flow", t_cmd, msg.flow, args);
    }
    trace_->flow_step(trace_lane_, "msg", "flow", sim_->now(), msg.flow,
                      args);
  } else if (t_trigger >= 0 && !trig_lane_.empty()) {
    // Fired by a counting-receive event: causality starts at the trigger
    // unit, not the GPU.
    trace_->flow_begin(trig_lane_, "msg", "flow", t_cmd, msg.flow, args);
    trace_->flow_step(trace_lane_, "msg", "flow", sim_->now(), msg.flow,
                      args);
  } else {
    trace_->flow_begin(trace_lane_, "msg", "flow", sim_->now(), msg.flow,
                       args);
  }
}

void Nic::stamp_tx(net::Message& msg, const QueuedCmd& qc) {
  msg.t_post = qc.posted;
  msg.t_ring = qc.rung;
  msg.t_pop = qc.popped;
  msg.t_admit = qc.admitted;
  stamp_tx(msg, qc.enqueued, qc.trigger, qc.trigger_mmio);
}

void Nic::record_delivery(obs::FlightLeg& leg, std::uint64_t op_tag,
                          std::int32_t tenant) {
  sim::Tick now = sim_->now();
  // Stage deltas in nanoseconds, pow2-bucketed. Recording is pure
  // bookkeeping (no simulator interaction), so it cannot perturb timing;
  // it is always on, which is what lets every run report a Figure-8-style
  // latency decomposition for free.
  auto rec = [](sim::LazyStat<sim::Histogram>& h, sim::Tick from,
                sim::Tick to) {
    if (from < 0 || to < from) return;
    h->add(static_cast<std::uint64_t>((to - from) / 1000));
  };
  if (leg.t_trigger >= 0) rec(lat_trigger_to_fire_, leg.t_trigger, leg.t_cmd);
  rec(lat_tx_queue_, leg.t_cmd, leg.t_wire);
  rec(lat_wire_, leg.t_wire, leg.t_rx);
  rec(lat_rx_to_deposit_, leg.t_rx, now);
  rec(lat_end_to_end_, leg.t_trigger >= 0 ? leg.t_trigger : leg.t_cmd, now);
  if (trace_ != nullptr && leg.flow != 0) {
    trace_->flow_end(trace_lane_, "msg", "flow", now, leg.flow);
  }
  record_flight(leg, op_tag, tenant, now);
}

void Nic::record_flight(obs::FlightLeg& leg, std::uint64_t op_tag,
                        std::int32_t tenant, sim::Tick t_deposit) {
  if (flight_ == nullptr) return;
  leg.t_deposit = t_deposit;
  flight_->record(leg, op_tag, tenant);
}

void Nic::issue_rndv_pull(const PendingRts& rts, const RecvDesc& r) {
  if (rts.bytes > r.max_bytes) {
    throw std::runtime_error("recv buffer too small for rendezvous send");
  }
  ++stats_.counter("rendezvous_pulls");
  net::Message pull;
  pull.src = node_id_;
  pull.dst = rts.src;
  pull.kind = kRndvPull;
  pull.h0 = rts.sender_buf;
  pull.h1 = rts.bytes;
  pull.h2 = r.local_addr;
  pull.h3 = r.flag;
  pull.h4 = r.flag_value;
  pull.h5 = r.cq_cookie;
  stamp_tx(pull, sim_->now(), -1, false);
  reliability_.send(std::move(pull));
}

void Nic::post_recv(RecvDesc r) {
  ++stats_.counter("recvs_posted");
  // Check parked rendezvous RTS descriptors first...
  for (auto it = pending_rts_.begin(); it != pending_rts_.end(); ++it) {
    if ((r.src == kAnySource || it->src == r.src) && it->tag == r.tag) {
      PendingRts rts = *it;
      pending_rts_.erase(it);
      issue_rndv_pull(rts, r);
      return;
    }
  }
  // ...then the unexpected eager queue (message arrived before the recv).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if ((r.src == kAnySource || it->src == r.src) && it->h0 == r.tag) {
      net::Message msg = std::move(*it);
      unexpected_.erase(it);
      if (msg.payload.size() > r.max_bytes) {
        throw std::runtime_error("recv buffer too small for matched send");
      }
      ++stats_.counter("recvs_matched_unexpected");
      std::uint64_t bytes = msg.payload.size();
      std::uint64_t cookie = r.cq_cookie;
      obs::FlightLeg leg = flight_leg(msg);
      sim_->spawn(
          [](Nic* nic, mem::Addr dst, std::vector<std::byte> payload,
             mem::Addr flag, std::uint64_t flag_value, std::uint64_t cookie,
             std::uint64_t bytes, obs::FlightLeg leg, std::uint64_t op_tag,
             std::int32_t tenant) -> sim::Task<> {
            co_await nic->land_payload(dst, std::move(payload), flag,
                                       flag_value);
            nic->push_cq(cookie, 3, bytes);
            nic->record_delivery(leg, op_tag, tenant);
          }(this, r.local_addr, std::move(msg.payload), r.flag, r.flag_value,
            cookie, bytes, leg, msg.op_tag, msg.tenant),
          log_.component() + ".land");
      return;
    }
  }
  posted_.push_back(r);
}

void Nic::deliver(net::Message&& msg) {
  // All wire arrivals pass through the reliability layer: ACK/NACK traffic
  // is absorbed there, data reaches rx_queue_ exactly once and in order.
  reliability_.on_wire_receive(std::move(msg));
}

void Nic::set_flag(mem::Addr flag, std::uint64_t value) {
  if (flag != 0) mem_->store<std::uint64_t>(flag, value);
}

void Nic::push_cq(std::uint64_t cookie, std::uint32_t kind,
                  std::uint64_t bytes) {
  if (cookie == 0) return;
  ++stats_.counter("cq_entries");
  cq_.push(CqEntry{cookie, kind, bytes, sim_->now()});
}

sim::Task<> Nic::tx_loop() {
  for (;;) {
    QueuedCmd qc = co_await cmd_queue_.pop();
    qc.popped = sim_->now();
    if (rate_ != nullptr) {
      // Rate-limited admission: the command stays "queued" in the ledger
      // while it waits for a token, so pacing stalls show up as NIC
      // command-queue time in the utilization report.
      co_await rate_->acquire();
      stats_.counter("nic.tb.admitted") = rate_->admitted();
      stats_.counter("nic.tb.stalls") = rate_->stalls();
      stats_.counter("nic.tb.stall_ps") =
          static_cast<std::uint64_t>(rate_->stalled_time());
    }
    sim::Tick begin = sim_->now();
    qc.admitted = begin;  // == popped when pacing is off or had tokens
    cmd_util_.dequeue(begin);
    cmd_util_.acquire(begin);
    co_await sim_->delay(config_.cmd_fetch);
    const char* kind = std::holds_alternative<PutDesc>(qc.cmd)   ? "put"
                       : std::holds_alternative<GetDesc>(qc.cmd) ? "get"
                                                                 : "send";
    co_await execute(std::move(qc));
    cmd_util_.release(sim_->now());
    if (trace_ != nullptr) {
      trace_->span(trace_lane_, std::string("tx:") + kind, "nic", begin,
                   sim_->now());
    }
  }
}

sim::Task<> Nic::execute(QueuedCmd qc) {
  Command& cmd = qc.cmd;
  if (auto* put = std::get_if<PutDesc>(&cmd)) {
    ++stats_.counter("puts");
    net::Message msg;
    msg.src = node_id_;
    msg.dst = put->target;
    msg.kind = kPut;
    msg.h0 = put->remote_addr;
    msg.h1 = put->remote_flag;
    msg.h2 = put->flag_value;
    msg.h3 = put->remote_trigger_tag_plus1;
    msg.op_tag = put->op_tag;
    msg.tenant = put->tenant;
    msg.payload = fabric_->payload_pool().acquire();
    co_await tx_dma_.read_into(msg.payload, put->local_addr, put->bytes);
    // Payload has left the send buffer: local completion.
    set_flag(put->local_flag, put->flag_value);
    push_cq(put->cq_cookie, 1, put->bytes);
    stamp_tx(msg, qc);
    reliability_.send(std::move(msg));
  } else if (auto* get = std::get_if<GetDesc>(&cmd)) {
    ++stats_.counter("gets");
    net::Message msg;
    msg.src = node_id_;
    msg.dst = get->target;
    msg.kind = kGetReq;
    msg.h0 = get->remote_addr;   // where to read at the target
    msg.h1 = get->bytes;
    msg.h2 = get->local_addr;    // reply lands here
    msg.h3 = (static_cast<std::uint64_t>(get->local_flag));
    msg.op_tag = get->op_tag;
    msg.tenant = get->tenant;
    // Stash the flag value in the reply via the target (h2/h3 round-trip).
    stamp_tx(msg, qc);
    reliability_.send(std::move(msg));
    // local_flag is raised when the GetReply lands (rx path).
    (void)get->flag_value;  // carried implicitly: reply uses value 1 + addr
  } else if (auto* send = std::get_if<SendDesc>(&cmd)) {
    ++stats_.counter("sends");
    if (send->bytes <= config_.eager_threshold) {
      net::Message msg;
      msg.src = node_id_;
      msg.dst = send->target;
      msg.kind = kSend;
      msg.h0 = send->tag;
      msg.op_tag = send->op_tag;
      msg.tenant = send->tenant;
      msg.payload = fabric_->payload_pool().acquire();
      co_await tx_dma_.read_into(msg.payload, send->local_addr, send->bytes);
      set_flag(send->local_flag, send->flag_value);
      push_cq(send->cq_cookie, 2, send->bytes);
      stamp_tx(msg, qc);
      reliability_.send(std::move(msg));
    } else {
      // Rendezvous: ship only the ready-to-send descriptor; the payload
      // stays put until the target's receive matches and pulls it.
      ++stats_.counter("rendezvous_sends");
      rndv_sender_state_[send->local_addr] =
          SenderRndvState{send->local_flag, send->flag_value, send->cq_cookie};
      net::Message rts;
      rts.src = node_id_;
      rts.dst = send->target;
      rts.kind = kRts;
      rts.h0 = send->tag;
      rts.h1 = send->bytes;
      rts.h2 = send->local_addr;
      rts.op_tag = send->op_tag;
      rts.tenant = send->tenant;
      stamp_tx(rts, qc);
      reliability_.send(std::move(rts));
      // Local completion is raised when the pull drains the buffer.
    }
  }
}

sim::Task<> Nic::land_payload(mem::Addr dst, std::vector<std::byte>&& payload,
                              mem::Addr flag, std::uint64_t flag_value) {
  if (payload.empty()) {
    set_flag(flag, flag_value);
    co_return;
  }
  std::vector<std::byte> data = std::move(payload);
  co_await rx_dma_.write_from(dst, data);
  set_flag(flag, flag_value);
  // The staging buffer's bytes are in memory now; recycle its allocation.
  fabric_->payload_pool().release(std::move(data));
}

sim::Task<> Nic::handle_rx(net::Message msg) {
  // Captured before the payload is moved out; data-carrying kinds feed the
  // stage histograms (and end their trace flow) once the deposit is done.
  obs::FlightLeg leg = flight_leg(msg);
  switch (msg.kind) {
    case kPut: {
      ++*puts_received_;
      std::uint64_t trigger_tag_plus1 = msg.h3;
      co_await land_payload(msg.h0, std::move(msg.payload), msg.h1, msg.h2);
      record_delivery(leg, msg.op_tag, msg.tenant);
      if (trigger_tag_plus1 != 0 && rx_trigger_hook_) {
        // Counting receive event: bump the local trigger counter so a
        // chained operation can fire with no processor involvement.
        ++stats_.counter("rx_trigger_events");
        rx_trigger_hook_(trigger_tag_plus1 - 1);
      }
      break;
    }
    case kSend: {
      ++*sends_received_;
      bool matched = false;
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if ((it->src == kAnySource || it->src == msg.src) &&
            it->tag == msg.h0) {
          RecvDesc r = *it;
          posted_.erase(it);
          if (msg.payload.size() > r.max_bytes) {
            throw std::runtime_error("recv buffer too small for matched send");
          }
          std::uint64_t bytes = msg.payload.size();
          co_await land_payload(r.local_addr, std::move(msg.payload), r.flag,
                                r.flag_value);
          push_cq(r.cq_cookie, 3, bytes);
          record_delivery(leg, msg.op_tag, msg.tenant);
          matched = true;
          break;
        }
      }
      if (!matched) {
        ++stats_.counter("unexpected_msgs");
        unexpected_.push_back(std::move(msg));
      }
      break;
    }
    case kRts: {
      ++stats_.counter("rts_received");
      PendingRts rts{msg.src, msg.h0, msg.h1, msg.h2};
      bool matched = false;
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if ((it->src == kAnySource || it->src == msg.src) &&
            it->tag == msg.h0) {
          RecvDesc r = *it;
          posted_.erase(it);
          issue_rndv_pull(rts, r);
          matched = true;
          break;
        }
      }
      if (!matched) pending_rts_.push_back(rts);
      break;
    }
    case kRndvPull: {
      ++stats_.counter("rndv_pulls_received");
      // We are the original sender: stream the payload to the receiver.
      net::Message data;
      data.src = node_id_;
      data.dst = msg.src;
      data.kind = kRndvData;
      data.h0 = msg.h2;  // receiver's buffer
      data.h1 = msg.h3;  // receiver's flag
      data.h2 = msg.h4;  // receiver's flag value
      data.h3 = msg.h5;  // receiver's cq cookie
      data.payload = fabric_->payload_pool().acquire();
      co_await tx_dma_.read_into(data.payload, msg.h0, msg.h1);
      // Payload has left the send buffer: the send's local completion.
      auto st = rndv_sender_state_.find(msg.h0);
      if (st != rndv_sender_state_.end()) {
        set_flag(st->second.local_flag, st->second.flag_value);
        push_cq(st->second.cq_cookie, 2, msg.h1);
        rndv_sender_state_.erase(st);
      }
      stamp_tx(data, sim_->now(), -1, false);
      reliability_.send(std::move(data));
      break;
    }
    case kRndvData: {
      ++stats_.counter("rndv_data_received");
      std::uint64_t bytes = msg.payload.size();
      std::uint64_t cookie = msg.h3;
      co_await land_payload(msg.h0, std::move(msg.payload), msg.h1, msg.h2);
      push_cq(cookie, 3, bytes);
      record_delivery(leg, msg.op_tag, msg.tenant);
      break;
    }
    case kGetReq: {
      ++*get_reqs_received_;
      // The request leg ends here (no payload deposits). Feeds only the
      // flight recorder — the always-on histograms never saw get requests
      // and must not start to (pinned goldens).
      record_flight(leg, msg.op_tag, msg.tenant, sim_->now());
      net::Message reply;
      reply.src = node_id_;
      reply.dst = msg.src;
      reply.kind = kGetReply;
      reply.h0 = msg.h2;  // initiator's local_addr
      reply.h1 = msg.h3;  // initiator's local_flag
      reply.h2 = 1;       // flag value
      // The reply is the same logical op's second leg.
      reply.op_tag = msg.op_tag;
      reply.tenant = msg.tenant;
      reply.payload = fabric_->payload_pool().acquire();
      co_await tx_dma_.read_into(reply.payload, msg.h0, msg.h1);
      stamp_tx(reply, sim_->now(), -1, false);
      reliability_.send(std::move(reply));
      break;
    }
    case kGetReply: {
      ++*get_replies_received_;
      co_await land_payload(msg.h0, std::move(msg.payload), msg.h1, msg.h2);
      record_delivery(leg, msg.op_tag, msg.tenant);
      break;
    }
    default:
      throw std::logic_error("nic: unknown message kind");
  }
}

sim::Task<> Nic::rx_loop() {
  for (;;) {
    net::Message msg = co_await rx_queue_.pop();
    sim::Tick begin = sim_->now();
    std::uint32_t kind = msg.kind;
    co_await sim_->delay(config_.rx_pipeline);
    co_await handle_rx(std::move(msg));
    if (trace_ != nullptr) {
      trace_->span(trace_lane_, "rx:" + std::to_string(kind), "nic", begin,
                   sim_->now());
    }
  }
}

}  // namespace gputn::nic
