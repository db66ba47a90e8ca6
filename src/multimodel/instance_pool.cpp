#include "multimodel/instance_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "engine/applier.hpp"
#include "rng/engine.hpp"

namespace crowdml::multimodel {

namespace {

obs::MetricsRegistry& registry_of(const PoolOptions& opts) {
  return opts.metrics ? *opts.metrics : obs::default_registry();
}

/// SplitMix64 finalizer (same mixing as rng::splitmix64, but over a value
/// already advanced atomically — the atomic fetch_add *is* the state
/// step, so concurrent I/O threads each get a distinct, well-mixed draw).
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kStreamStep = 0x9E3779B97F4A7C15ULL;
/// Overwrite-record kind tag inside the opaque envelope.
constexpr std::uint32_t kOverwriteKind = 1;

/// The pool's overwrite-record replay handler: opaque WAL records
/// deserialize as OverwriteRecords and apply via
/// Server::overwrite_parameters, leaving version == seq, so recovery and
/// live apply agree.
void install_overwrite_replay(store::DurableStoreOptions& opts) {
  opts.opaque_replay = [](core::Server& server, std::uint64_t seq,
                          const net::Bytes& payload) {
    const auto rec = OverwriteRecord::deserialize(payload);
    const std::uint64_t v = server.overwrite_parameters(rec.w);
    if (v != seq)
      throw store::WalError("overwrite replay produced version " +
                            std::to_string(v) + ", record says " +
                            std::to_string(seq));
  };
}

}  // namespace

net::Bytes OverwriteRecord::serialize() const {
  net::Writer wr;
  wr.put_u32(store::kOpaqueRecordMagic);
  wr.put_u32(kOverwriteKind);
  wr.put_u64(source_instance);
  wr.put_vector(w);
  return wr.take();
}

OverwriteRecord OverwriteRecord::deserialize(const net::Bytes& payload) {
  net::Reader r(payload);
  if (r.get_u32() != store::kOpaqueRecordMagic)
    throw net::CodecError("not an opaque record");
  if (r.get_u32() != kOverwriteKind)
    throw net::CodecError("unknown opaque record kind");
  OverwriteRecord rec;
  rec.source_instance = r.get_u64();
  rec.w = r.get_vector();
  if (!r.exhausted())
    throw net::CodecError("trailing bytes after overwrite record");
  return rec;
}

ModelInstancePool::Slot::Slot(ModelInstancePool* owner, std::size_t idx,
                              std::unique_ptr<core::Server> srv,
                              net::AuthRegistry& auth,
                              const PoolOptions& opts)
    : pool(owner),
      index(idx),
      server(std::move(srv)),
      board(opts.metrics),
      queue(opts.checkin_queue_max, opts.metrics) {
  protocol =
      std::make_unique<core::ProtocolServer>(*server, auth, opts.trace);
  // Deterministic per-instance discard stream, keyed by index so the
  // stream does not depend on construction order.
  discard_state = opts.seed ^ (kStreamStep * (idx + 1));
}

ModelInstancePool::ModelInstancePool(net::AuthRegistry& auth,
                                     const ServerFactory& factory,
                                     PoolOptions options)
    : opts_(std::move(options)),
      overwrites_applied_(registry_of(opts_).counter(
          "crowdml_multimodel_overwrites_applied_total",
          "Draw-and-discard parameter overwrites applied to victim "
          "instances",
          obs::Provenance::kTransportEvent)),
      overwrites_dropped_(registry_of(opts_).counter(
          "crowdml_multimodel_overwrites_dropped_total",
          "Discard overwrites shed because the victim instance's queue "
          "was full (the update survives one extra round instead)",
          obs::Provenance::kTransportEvent)) {
  if (opts_.instances == 0) opts_.instances = 1;
  if (opts_.checkin_batch_max == 0) opts_.checkin_batch_max = 1;

  // Independent draw/route streams, both derived from the pool seed.
  std::uint64_t seed_state = opts_.seed;
  draw_state_.store(rng::splitmix64(seed_state));
  route_state_.store(rng::splitmix64(seed_state));

  slots_.reserve(opts_.instances);
  for (std::size_t i = 0; i < opts_.instances; ++i) {
    auto slot = std::make_unique<Slot>(this, i, factory(i), auth, opts_);
    if (opts_.coordinator_factory)
      slot->coordinator = opts_.coordinator_factory(i);
    if (!opts_.wal_dir.empty()) {
      store::DurableStoreOptions sopts = opts_.store;
      install_overwrite_replay(sopts);
      slot->store = std::make_unique<store::DurableStore>(
          store::DurableStore::instance_dir(opts_.wal_dir, i,
                                            opts_.instances),
          std::move(sopts));
      slot->store->recover(*slot->server);
      slot->store->attach(*slot->server);
      slot->store->set_group_commit(true);
    }
    // Valid snapshot before any checkout can draw this instance.
    slot->board.publish(*slot->server);
    slots_.push_back(std::move(slot));
  }
}

ModelInstancePool::~ModelInstancePool() { shutdown(); }

void ModelInstancePool::start() {
  if (started_.exchange(true)) return;
  for (auto& slot : slots_) {
    Slot* s = slot.get();
    s->seen_version = s->server->version();
    s->applier = std::thread([this, s] {
      // With k = 1 every discard victim is the updated instance itself,
      // so no overwrite record ever exists and no draw is needed: the
      // instance runs the plain engine loop.
      engine::run_applier({.queue = s->queue,
                           .server = *s->server,
                           .protocol = *s->protocol,
                           .board = s->board,
                           .batch_max = opts_.checkin_batch_max,
                           .commit =
                               [s]() -> std::function<bool()> {
                                 if (!s->store) return nullptr;
                                 return [s] { return s->store->commit_group(); };
                               },
                           .coordinator = s->coordinator.get(),
                           .records = slots_.size() > 1 ? s : nullptr,
                           .metrics = opts_.metrics,
                           .trace = opts_.trace});
    });
  }
}

void ModelInstancePool::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& slot : slots_) slot->queue.close();
  for (auto& slot : slots_)
    if (slot->applier.joinable()) slot->applier.join();
  for (auto& slot : slots_)
    if (slot->store) slot->store->sync();
}

std::size_t ModelInstancePool::draw_index(std::atomic<std::uint64_t>& state) {
  const std::uint64_t z =
      state.fetch_add(kStreamStep, std::memory_order_relaxed) + kStreamStep;
  return static_cast<std::size_t>(mix64(z) % slots_.size());
}

std::shared_ptr<const engine::ModelSnapshot> ModelInstancePool::draw_snapshot() {
  const std::size_t i = slots_.size() == 1 ? 0 : draw_index(draw_state_);
  slots_[i]->draws.fetch_add(1, std::memory_order_relaxed);
  return slots_[i]->board.current();
}

bool ModelInstancePool::route_checkin(engine::CheckinWork&& work) {
  const std::size_t i = slots_.size() == 1 ? 0 : draw_index(route_state_);
  if (!slots_[i]->queue.try_push(std::move(work))) return false;
  slots_[i]->routes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t ModelInstancePool::total_version() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->server->version();
  return total;
}

bool ModelInstancePool::stopped() const {
  for (const auto& slot : slots_)
    if (!slot->server->stopped()) return false;
  return true;
}

std::vector<long long> ModelInstancePool::draw_counts() const {
  std::vector<long long> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->draws.load());
  return out;
}

std::vector<long long> ModelInstancePool::route_counts() const {
  std::vector<long long> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->routes.load());
  return out;
}

std::vector<long long> ModelInstancePool::discard_counts() const {
  std::vector<long long> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->discards.load());
  return out;
}

bool ModelInstancePool::Slot::apply(const net::Bytes& frame) {
  if (!store::is_opaque_record(frame)) return false;
  try {
    const auto rec = OverwriteRecord::deserialize(frame);
    const std::uint64_t v = server->overwrite_parameters(rec.w);
    if (store) store->log_record(v, frame);
    ++batch_overwrites;
    ++pool->overwrites_applied_;
    if (pool->opts_.trace)
      pool->opts_.trace->event("overwrite_applied",
                               {{"instance", index},
                                {"source", rec.source_instance},
                                {"version", v}});
  } catch (const std::exception&) {
    // A malformed or mis-sized overwrite never reaches here from our own
    // appliers; drop rather than poison the instance.
    ++pool->overwrites_dropped_;
  }
  return true;
}

void ModelInstancePool::Slot::end_batch() {
  // Updates this batch applied for clients: every version step that was
  // not an overwrite (an ok-ack is exactly one step), so no ack needs
  // decoding to count them.
  const std::uint64_t v = server->version();
  const std::uint64_t updates = v - seen_version - batch_overwrites;
  seen_version = v;
  batch_overwrites = 0;

  // One discard draw per update, from this instance's deterministic
  // stream; same-victim draws coalesce into one overwrite carrying the
  // batch-final parameters. A self-draw is the no-op of replacing an
  // instance with itself. A full victim queue sheds the overwrite: the
  // victim's parameters survive one extra round, which biases nothing.
  auto& slots = pool->slots_;
  std::vector<bool> victim(slots.size(), false);
  for (std::uint64_t u = 0; u < updates; ++u) {
    const std::size_t i =
        static_cast<std::size_t>(rng::splitmix64(discard_state) % slots.size());
    slots[i]->discards.fetch_add(1, std::memory_order_relaxed);
    if (i != index) victim[i] = true;
  }
  if (std::find(victim.begin(), victim.end(), true) == victim.end()) return;
  OverwriteRecord rec;
  rec.source_instance = index;
  rec.w = server->parameters();
  const net::Bytes payload = rec.serialize();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!victim[i]) continue;
    engine::CheckinWork ow;
    ow.frame = payload;
    if (!slots[i]->queue.try_push(std::move(ow))) ++pool->overwrites_dropped_;
  }
}

void wire_engine(ModelInstancePool& pool, engine::EngineConfig& config) {
  config.draw_snapshot = [&pool] { return pool.draw_snapshot(); };
  config.route_checkin = [&pool](engine::CheckinWork&& work) {
    return pool.route_checkin(std::move(work));
  };
  config.shutdown_drain = [&pool] { pool.shutdown(); };
}

}  // namespace crowdml::multimodel
