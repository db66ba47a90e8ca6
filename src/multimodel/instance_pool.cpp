#include "multimodel/instance_pool.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "net/codec.hpp"
#include "rng/engine.hpp"

namespace crowdml::multimodel {

namespace {

/// Overwrite-record kind tag inside the opaque envelope.
constexpr std::uint32_t kOverwriteKind = 1;

obs::MetricsRegistry& registry_of(obs::MetricsRegistry* metrics) {
  return metrics ? *metrics : obs::default_registry();
}

/// The kind tag of an opaque payload (the u32 after the envelope magic);
/// 0 when the payload is too short to carry one.
std::uint32_t opaque_kind(const net::Bytes& payload) {
  if (payload.size() < 8) return 0;
  net::Reader r(payload);
  r.get_u32();
  return r.get_u32();
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

void install_overwrite_replay(store::DurableStoreOptions& opts) {
  opts.opaque_replay = [next = std::move(opts.opaque_replay)](
                           core::Server& server, std::uint64_t seq,
                           const net::Bytes& payload) {
    if (next && opaque_kind(payload) != kOverwriteKind)
      return next(server, seq, payload);
    const auto rec = OverwriteRecord::deserialize(payload);
    const std::uint64_t v = server.overwrite_parameters(rec.w);
    if (v != seq)
      throw store::WalError("overwrite replay produced version " +
                            std::to_string(v) + ", record says " +
                            std::to_string(seq));
  };
}

DiscardRecords::DiscardRecords(std::size_t index, std::size_t instances,
                               std::uint64_t seed, core::Server& server,
                               store::DurableStore* store,
                               obs::MetricsRegistry* metrics,
                               obs::TraceSink* trace)
    : index_(index),
      server_(server),
      store_(store),
      trace_(trace),
      // Keyed by index so the stream does not depend on construction
      // order.
      discard_state_(seed ^ (0x9E3779B97F4A7C15ULL * (index + 1))),
      seen_version_(server.version()),
      discards_(instances),
      overwrites_applied_(registry_of(metrics).counter(
          "crowdml_multimodel_overwrites_applied_total",
          "Draw-and-discard parameter overwrites applied to victim "
          "instances",
          obs::Provenance::kTransportEvent)),
      overwrites_dropped_(registry_of(metrics).counter(
          "crowdml_multimodel_overwrites_dropped_total",
          "Discard overwrites shed because the victim instance's queue "
          "was full (the update survives one extra round instead)",
          obs::Provenance::kTransportEvent)) {}

std::vector<long long> DiscardRecords::discard_counts() const {
  std::vector<long long> out;
  out.reserve(discards_.size());
  for (const auto& c : discards_) out.push_back(c.load());
  return out;
}

bool DiscardRecords::apply(const net::Bytes& frame) {
  if (!store::is_opaque_record(frame)) return false;
  try {
    const auto rec = OverwriteRecord::deserialize(frame);
    const std::uint64_t v = server_.overwrite_parameters(rec.w);
    if (store_) store_->log_record(v, frame);
    ++batch_overwrites_;
    ++overwrites_applied_;
    if (trace_)
      trace_->event("overwrite_applied", {{"instance", index_},
                                          {"source", rec.source_instance},
                                          {"version", v}});
  } catch (const std::exception&) {
    // A malformed or mis-sized overwrite never reaches here from our own
    // appliers; drop rather than poison the instance.
    ++overwrites_dropped_;
  }
  return true;
}

void DiscardRecords::end_batch(const std::vector<engine::CheckinQueue*>& lanes) {
  // Updates this batch applied for clients: every version step that was
  // not an overwrite (an ok-ack is exactly one step), so no ack needs
  // decoding to count them.
  const std::uint64_t v = server_.version();
  const std::uint64_t updates = v - seen_version_ - batch_overwrites_;
  seen_version_ = v;
  batch_overwrites_ = 0;

  // One discard draw per update, from this instance's deterministic
  // stream; same-victim draws coalesce into one overwrite carrying the
  // batch-final parameters. A self-draw is the no-op of replacing an
  // instance with itself. A full victim queue sheds the overwrite: the
  // victim's parameters survive one extra round, which biases nothing.
  std::vector<bool> victim(lanes.size(), false);
  for (std::uint64_t u = 0; u < updates; ++u) {
    const std::size_t i =
        static_cast<std::size_t>(rng::splitmix64(discard_state_) % lanes.size());
    discards_[i].fetch_add(1, std::memory_order_relaxed);
    if (i != index_) victim[i] = true;
  }
  if (std::find(victim.begin(), victim.end(), true) == victim.end()) return;
  OverwriteRecord rec;
  rec.source_instance = index_;
  rec.w = server_.parameters();
  const net::Bytes payload = rec.serialize();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (!victim[i]) continue;
    engine::CheckinWork ow;
    ow.frame = payload;
    if (!lanes[i]->try_push(std::move(ow))) ++overwrites_dropped_;
  }
}

}  // namespace crowdml::multimodel
