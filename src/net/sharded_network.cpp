#include "net/sharded_network.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/invariant.hpp"

namespace lossburst::net {

ShardedNetwork::ShardCtx::ShardCtx(ShardedNetwork* o, std::size_t i,
                                   std::uint64_t sim_seed)
    : owner(o), id(i), sim(std::make_unique<sim::Simulator>(sim_seed)),
      net(std::make_unique<Network>(*sim)) {}

ShardedNetwork::ShardedNetwork(std::size_t shards, std::uint64_t seed) {
  if (shards == 0) throw std::invalid_argument("ShardedNetwork: shards must be >= 1");
  util::SplitMix64 sm(seed);
  ctxs_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    ctxs_.push_back(std::make_unique<ShardCtx>(this, i, sm.next()));
    auto& ctx = *ctxs_.back();
    ctx.in_pkts.resize(shards);
    ctx.in_drops.resize(shards);
  }
}

ShardedNetwork::~ShardedNetwork() {
  // The coordinator's worker threads must stop before the shard state they
  // reference is torn down.
  coordinator_.reset();
}

sim::Simulator& ShardedNetwork::sim(std::size_t shard) { return *ctxs_.at(shard)->sim; }

Network& ShardedNetwork::network(std::size_t shard) { return *ctxs_.at(shard)->net; }

Link* ShardedNetwork::add_link(std::size_t shard, std::string name,
                               std::uint64_t rate_bps, Duration delay,
                               std::unique_ptr<Queue> queue) {
  if (finalized_) {
    throw std::logic_error("ShardedNetwork: topology is frozen after finalize()");
  }
  Link* link = ctxs_.at(shard)->net->add_link(std::move(name), rate_bps, delay,
                                              std::move(queue));
  const auto index = static_cast<std::uint32_t>(links_.size());
  links_.push_back(LinkInfo{link, static_cast<std::uint32_t>(shard), delay.ns(), nullptr});
  link_index_.emplace(link, index);
  return link;
}

void ShardedNetwork::mark_boundary(Link* link, std::size_t dst_shard) {
  if (finalized_) {
    throw std::logic_error("ShardedNetwork: topology is frozen after finalize()");
  }
  const std::uint32_t index = index_of(link);
  LinkInfo& info = links_[index];
  if (dst_shard >= ctxs_.size()) {
    throw std::out_of_range("ShardedNetwork::mark_boundary: no such shard");
  }
  if (dst_shard == info.shard) return;  // receiver is local after all
  if (info.boundary != nullptr) {
    throw std::logic_error("ShardedNetwork::mark_boundary: already marked: " +
                           link->name());
  }
  if (info.delay_ns <= 0) {
    throw std::invalid_argument(
        "ShardedNetwork::mark_boundary: a boundary link needs positive "
        "propagation delay (it bounds the conservative lookahead): " +
        link->name());
  }
  auto adapter = std::make_unique<BoundaryAdapter>();
  adapter->owner = this;
  adapter->src = info.shard;
  adapter->dst = dst_shard;
  adapter->link = index;
  info.boundary = adapter.get();
  link->set_boundary(adapter.get());
  adapters_.push_back(std::move(adapter));
  min_boundary_delay_ns_ = std::min(min_boundary_delay_ns_, info.delay_ns);
}

const Route* ShardedNetwork::add_route(Route hops) {
  // Walk the hops and check every shard transition happens through a marked
  // boundary link into its declared destination — a cut anywhere else means
  // the partitioner and the route disagree, which the engine cannot survive.
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const LinkInfo& info = links_[index_of(hops[i])];
    if (i > 0) {
      const LinkInfo& prev = links_[index_of(hops[i - 1])];
      const std::uint32_t expect =
          prev.boundary != nullptr ? static_cast<std::uint32_t>(prev.boundary->dst)
                                   : prev.shard;
      if (info.shard != expect) {
        throw std::logic_error(
            "ShardedNetwork::add_route: route crosses shards at an unmarked "
            "boundary between " + hops[i - 1]->name() + " and " + hops[i]->name());
      }
    }
  }
  routes_.push_back(std::make_unique<Route>(std::move(hops)));
  return routes_.back().get();
}

Link* ShardedNetwork::find_link(std::string_view name) const {
  for (const LinkInfo& info : links_) {
    if (info.link->name() == name) return info.link;
  }
  return nullptr;
}

std::size_t ShardedNetwork::shard_of(const Link* link) const {
  return links_[index_of(link)].shard;
}

std::uint32_t ShardedNetwork::index_of(const Link* link) const {
  const auto it = link_index_.find(link);
  if (it == link_index_.end()) {
    throw std::out_of_range("ShardedNetwork: link is not part of this topology");
  }
  return it->second;
}

Link* ShardedNetwork::link_at(std::uint32_t index) const {
  return links_.at(index).link;
}

Duration ShardedNetwork::lookahead() const {
  // No boundary links: shards never exchange anything, so any finite horizon
  // works; quarter-max keeps gmin + L comfortably clear of overflow.
  if (min_boundary_delay_ns_ == std::numeric_limits<std::int64_t>::max()) {
    return Duration(std::numeric_limits<std::int64_t>::max() / 4);
  }
  return Duration(min_boundary_delay_ns_);
}

void ShardedNetwork::index_fault_states() {
  fault_origin_.clear();
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    if (const fault::LinkFaultState* st = links_[i].link->fault()) {
      fault_origin_.emplace(st, i);
    }
  }
}

void ShardedNetwork::finalize() {
  if (finalized_) return;
  index_fault_states();
  std::vector<sim::Simulator*> sims;
  std::vector<sim::ShardAgent*> agents;
  sims.reserve(ctxs_.size());
  agents.reserve(ctxs_.size());
  for (auto& ctx : ctxs_) {
    sims.push_back(ctx->sim.get());
    agents.push_back(ctx.get());
  }
  coordinator_ = std::make_unique<sim::ShardCoordinator>(std::move(sims),
                                                         std::move(agents), lookahead());
  finalized_ = true;
}

std::uint64_t ShardedNetwork::run_until(TimePoint until) {
  if (!finalized_) finalize();
  return coordinator_->run_until(until);
}

sim::ShardCoordinator& ShardedNetwork::coordinator() {
  if (!finalized_) finalize();
  return *coordinator_;
}

std::uint64_t ShardedNetwork::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& ctx : ctxs_) total += ctx->sim->events_executed();
  return total;
}

// ---------------------------------------------------------------------------
// Source side: boundary handoff.

void ShardedNetwork::BoundaryAdapter::handoff(const Packet& pkt,
                                              const PacketOptions* opt,
                                              std::int64_t finish_ns) {
  HandoffRecord rec;
  rec.finish_ns = finish_ns;
  rec.link = link;
  rec.link_seq = seq++;
  rec.pkt = pkt;
  if (opt != nullptr) {
    rec.opt = *opt;
    rec.has_opt = true;
  }
  if (pkt.corrupted_by != nullptr) {
    rec.corrupt_link = owner->corrupt_index(*owner->ctxs_[src], pkt.corrupted_by) + 1;
  }
  owner->ctxs_[dst]->in_pkts[src].push(std::move(rec));
}

std::uint32_t ShardedNetwork::corrupt_index(const ShardCtx& src,
                                            const fault::LinkFaultState* state) const {
  // A packet corrupted in this very shard carries a real state; one that was
  // already relayed through here carries this shard's proxy. Both maps are
  // safe from the source shard's thread: proxy_origin is shard-private and
  // fault_origin_ is frozen at finalize().
  if (const auto it = src.proxy_origin.find(state); it != src.proxy_origin.end()) {
    return it->second;
  }
  const auto it = fault_origin_.find(state);
  if (it == fault_origin_.end()) {
    throw std::logic_error(
        "ShardedNetwork: a corrupted packet's fault state is not indexed — "
        "was a FaultInjector attached after finalize()?");
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Destination side: drain, wedge, deliver.

void ShardedNetwork::ShardCtx::drain_inbound() {
  scratch.clear();
  for (std::size_t src = 0; src < in_pkts.size(); ++src) {
    sim::ShardMailbox<HandoffRecord>& box = in_pkts[src];
    for (std::size_t i = 0; i < box.size(); ++i) {
      // lossburst-lint: allow(datapath-alloc): scratch reaches a high-water size, then recycles
      scratch.push_back(box[i]);
    }
    box.clear();
  }
  // The wedge order must be the serial schedule order: ascending finish
  // time, ties broken by the boundary link's global creation index, then by
  // its per-link handoff sequence (duplicates). Keys are unique, so
  // std::sort is deterministic.
  std::sort(scratch.begin(), scratch.end(),
            [](const HandoffRecord& a, const HandoffRecord& b) {
              if (a.finish_ns != b.finish_ns) return a.finish_ns < b.finish_ns;
              if (a.link != b.link) return a.link < b.link;
              return a.link_seq < b.link_seq;
            });
  for (const HandoffRecord& rec : scratch) {
    std::uint32_t slot;
    if (!staged_free.empty()) {
      slot = staged_free.back();
      staged_free.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(staged.size());
      // lossburst-lint: allow(datapath-alloc): slab growth; stops at the high-water mark
      staged.push_back(Staged{});
    }
    Staged& st = staged[slot];
    st.pkt = rec.pkt;
    st.opt = rec.opt;
    st.has_opt = rec.has_opt;
    st.link = rec.link;
    st.corrupt_link = rec.corrupt_link;
    const std::int64_t arrive_ns = rec.finish_ns + owner->links_[rec.link].delay_ns;
    (void)sim->wedge_at(TimePoint(arrive_ns), rec.finish_ns,
                        [this, slot] { fire(slot); }, obs::EventTag::kLinkArrive);
  }
  // Checksum drops of packets this shard corrupted, reported back by the
  // delivering shard: replay them into the injecting link's tracer/recorder
  // in deterministic order. They apply "late" (at the barrier, not at their
  // simulated instant) with exact timestamps — consumers that need a total
  // order across links sort by time, which the campaign's analysis does.
  drop_scratch.clear();
  for (std::size_t src = 0; src < in_drops.size(); ++src) {
    sim::ShardMailbox<DropReport>& box = in_drops[src];
    for (std::size_t i = 0; i < box.size(); ++i) {
      // lossburst-lint: allow(datapath-alloc): scratch reaches a high-water size, then recycles
      drop_scratch.push_back(box[i]);
    }
    box.clear();
  }
  std::stable_sort(drop_scratch.begin(), drop_scratch.end(),
                   [](const DropReport& a, const DropReport& b) {
                     if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
                     return a.link < b.link;
                   });
  for (const DropReport& r : drop_scratch) {
    Link* origin = owner->links_[r.link].link;
    fault::LinkFaultState* st = origin->fault();
    LOSSBURST_INVARIANT(st != nullptr,
                        "a remote drop report names a link with no fault state");
    if (obs::FlightRecorder* rec =
            obs::trace_recorder(sim->telemetry(), obs::RecordKind::kFaultDrop)) {
      rec->record(obs::RecordKind::kFaultDrop, r.at_ns, st->obs_track,
                  obs::pack_packet(r.pkt.flow, r.pkt.seq),
                  static_cast<std::uint32_t>(fault::FaultCause::kCorrupt));
    }
    if (st->tracer != nullptr) {
      // Queue length 0: the delivering queue's occupancy is on the far side
      // of the cut and not observable here.
      st->tracer->on_drop(TimePoint(r.at_ns), r.pkt, 0);
    }
  }
}

ShardedNetwork::RemoteCorrupt* ShardedNetwork::ShardCtx::proxy_for(
    std::uint32_t origin_link) {
  const auto it = proxies.find(origin_link);
  if (it != proxies.end()) return it->second.get();
  // lossburst-lint: allow(datapath-alloc): one proxy per (injecting link, shard), first crossing only
  auto proxy = std::make_unique<RemoteCorrupt>();
  proxy->owner = owner;
  proxy->home_shard = id;
  proxy->origin_link = origin_link;
  proxy->state.tracer = proxy.get();
  RemoteCorrupt* raw = proxy.get();
  proxies.emplace(origin_link, std::move(proxy));
  proxy_origin.emplace(&raw->state, origin_link);
  return raw;
}

void ShardedNetwork::RemoteCorrupt::on_drop(TimePoint t, const Packet& pkt,
                                            std::size_t /*qlen*/) {
  // Runs on home_shard's thread during its epoch slice; the injecting link's
  // shard drains the report at the next barrier.
  ShardedNetwork::ShardCtx& origin_ctx =
      *owner->ctxs_[owner->links_[origin_link].shard];
  origin_ctx.in_drops[home_shard].push(DropReport{t.ns(), origin_link, pkt});
}

// A wedged cross-shard arrival fires: replay what Link::deliver would have
// done at the far end of the boundary link — advance the hop and enqueue
// into the next (shard-local) link, or hand the packet to its endpoint.
void ShardedNetwork::ShardCtx::fire(std::uint32_t slot) {
  const Staged st = staged[slot];
  staged_free.push_back(slot);
  Packet pkt = st.pkt;
  // The corrupted_by pointer from the source shard must never be
  // dereferenced here; rewrite it to this shard's proxy for the injecting
  // link (creating it on first crossing).
  if (st.corrupt_link != 0) {
    pkt.corrupted_by = &proxy_for(st.corrupt_link - 1)->state;
  }
  const PacketOptions* opt = st.has_opt ? &st.opt : nullptr;
  if (pkt.route != nullptr &&
      static_cast<std::size_t>(pkt.hop) + 1 < pkt.route->size()) {
    ++pkt.hop;
    Link* next = (*pkt.route)[pkt.hop];
    LOSSBURST_INVARIANT(&next->pool() == &net->pool(),
                        "a cross-shard arrival's next hop is not shard-local");
    next->enqueue(next->pool().materialize(pkt, opt));
    return;
  }
  // Final hop at the boundary link itself: deliver straight to the endpoint
  // (borrow semantics, no pool slot needed — mirrors inject()).
  if (pkt.corrupted_by != nullptr) {
    // Receiver-side checksum drop; the proxy's tracer reports it back to the
    // injecting link's shard.
    pkt.corrupted_by->tracer->on_drop(sim->now(), pkt, 0);
    return;
  }
  if (obs::FlightRecorder* rec =
          obs::trace_recorder(sim->telemetry(), obs::RecordKind::kPktDeliver)) {
    rec->record(obs::RecordKind::kPktDeliver, sim->now().ns(), 0,
                obs::pack_packet(pkt.flow, pkt.seq), 0);
  }
  LOSSBURST_INVARIANT(pkt.sink != nullptr, "cross-shard packet with no sink");
  pkt.sink->receive(pkt, opt);
}

}  // namespace lossburst::net
