// Tests for the durable state store: WAL record codec, segment rotation,
// fsync policies, torn-tail truncation, snapshot fallback, and
// byte-for-byte crash-recovery determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>

#include "net/messages.hpp"
#include "net/sha256.hpp"
#include "opt/schedule.hpp"
#include "rng/distributions.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;
using store::DurableStore;
using store::DurableStoreOptions;
using store::FsyncPolicy;
using store::WalError;
using store::WalOptions;
using store::WriteAheadLog;

namespace {

/// A unique directory under the system temp dir, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_store_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

net::Bytes payload_for(std::uint64_t seq) {
  net::Bytes b;
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<std::uint8_t>(seq * 31 + i));
  return b;
}

/// The records `seqs`, each carrying payload_for(seq), framed in order.
store::WalBatch batch_of(std::initializer_list<std::uint64_t> seqs) {
  store::WalBatch batch;
  for (const std::uint64_t s : seqs) batch.add(s, payload_for(s));
  return batch;
}

std::vector<std::string> segment_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0) out.push_back(e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t snapshot_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().rfind("snapshot-", 0) == 0) ++n;
  return n;
}

void flip_byte(const std::string& path, std::size_t at) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(at));
  char c = 0;
  f.read(&c, 1);
  c ^= 0x01;
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&c, 1);
}

void append_garbage(const std::string& path, std::size_t n) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  for (std::size_t i = 0; i < n; ++i) f.put('\x5a');
}

std::unique_ptr<opt::Updater> sgd(double c = 1.0) {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(c), 100.0);
}

core::ServerConfig config(std::size_t dim = 4, std::size_t classes = 3) {
  core::ServerConfig c;
  c.param_dim = dim;
  c.num_classes = classes;
  return c;
}

net::CheckinMessage random_checkin(rng::Engine& eng, std::uint64_t device) {
  net::CheckinMessage m;
  m.device_id = device;
  for (int i = 0; i < 4; ++i)
    m.g_hat.push_back(static_cast<double>(eng() % 2001) / 1000.0 - 1.0);
  m.ns = 1 + static_cast<std::int64_t>(eng() % 10);
  m.ne_hat = static_cast<std::int64_t>(eng() % 3);
  for (int i = 0; i < 3; ++i)
    m.ny_hat.push_back(static_cast<std::int64_t>(eng() % 5));
  return m;
}

/// Exact-state equality between two servers: parameters, iteration, and
/// per-device statistics bit-for-bit. (Serialized checkpoints cannot be
/// byte-compared directly — unordered_map iteration order varies.)
void expect_same_state(core::Server& a, core::Server& b) {
  EXPECT_EQ(a.parameters(), b.parameters());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.total_samples(), b.total_samples());
  EXPECT_EQ(a.devices_seen(), b.devices_seen());
  EXPECT_EQ(a.estimated_error(), b.estimated_error());
  EXPECT_EQ(a.estimated_prior(), b.estimated_prior());
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const auto sa = a.device_stats(id);
    const auto sb = b.device_stats(id);
    EXPECT_EQ(sa.samples, sb.samples) << "device " << id;
    EXPECT_EQ(sa.errors_hat, sb.errors_hat) << "device " << id;
    EXPECT_EQ(sa.checkins, sb.checkins) << "device " << id;
    EXPECT_EQ(sa.label_counts_hat, sb.label_counts_hat) << "device " << id;
  }
}

/// Every file in `dir` by name, with its bytes.
std::map<std::string, std::string> dir_contents(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream f(e.path(), std::ios::binary);
    out[e.path().filename().string()].assign(
        std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  return out;
}

/// This process's write(2)-family syscall count, or -1 when
/// /proc/self/io cannot be read.
long long write_syscalls() {
  std::ifstream f("/proc/self/io");
  std::string key;
  long long value = 0;
  while (f >> key >> value)
    if (key == "syscw:") return value;
  return -1;
}

/// Replay stats plus the records seen, for assertions.
struct Collected {
  store::ReplayStats stats;
  std::vector<store::WalRecord> records;
};

Collected replay_all(WriteAheadLog& wal, std::uint64_t from_seq = 0) {
  Collected c;
  c.stats = wal.open_and_replay(
      from_seq, [&](std::uint64_t seq, const net::Bytes& payload) {
        c.records.push_back({seq, payload});
      });
  return c;
}

}  // namespace

// ---------------------------------------------------------------- records

TEST(WalRecord, RoundTrip) {
  const net::Bytes payload = payload_for(7);
  const net::Bytes buf = store::encode_wal_record(7, payload);
  std::size_t offset = 0;
  const store::WalRecord rec = store::decode_wal_record(buf, &offset);
  EXPECT_EQ(rec.seq, 7u);
  EXPECT_EQ(rec.payload, payload);
  EXPECT_EQ(offset, buf.size());
}

TEST(WalRecord, SequentialDecode) {
  net::Bytes buf = store::encode_wal_record(1, payload_for(1));
  const net::Bytes second = store::encode_wal_record(2, payload_for(2));
  buf.insert(buf.end(), second.begin(), second.end());
  std::size_t offset = 0;
  EXPECT_EQ(store::decode_wal_record(buf, &offset).seq, 1u);
  EXPECT_EQ(store::decode_wal_record(buf, &offset).seq, 2u);
  EXPECT_EQ(offset, buf.size());
}

TEST(WalRecord, TruncationDetectedOffsetUnchanged) {
  const net::Bytes full = store::encode_wal_record(3, payload_for(3));
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{15},
                          full.size() - 1}) {
    net::Bytes buf(full.begin(), full.begin() + static_cast<long>(cut));
    std::size_t offset = 0;
    EXPECT_THROW(store::decode_wal_record(buf, &offset), WalError);
    EXPECT_EQ(offset, 0u);
  }
}

TEST(WalRecord, EveryBitFlipDetected) {
  const net::Bytes good = store::encode_wal_record(9, payload_for(9));
  for (std::size_t i = 0; i < good.size(); ++i) {
    net::Bytes bad = good;
    bad[i] ^= 0x01;
    std::size_t offset = 0;
    try {
      const store::WalRecord rec = store::decode_wal_record(bad, &offset);
      // The only undetectable single-bit flip would collide CRC-32, which
      // cannot happen for messages this short.
      ADD_FAILURE() << "flip at byte " << i << " decoded seq " << rec.seq;
    } catch (const WalError&) {
    }
  }
}

// -------------------------------------------------------------------- wal

TEST(Wal, AppendThenReplayRoundTrip) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    EXPECT_EQ(replay_all(wal).stats.records_applied, 0u);
    for (std::uint64_t s = 1; s <= 20; ++s) wal.append(s, payload_for(s));
    EXPECT_EQ(wal.last_seq(), 20u);
  }
  WriteAheadLog wal(dir.path, {});
  const Collected c = replay_all(wal);
  ASSERT_EQ(c.records.size(), 20u);
  for (std::uint64_t s = 1; s <= 20; ++s) {
    EXPECT_EQ(c.records[s - 1].seq, s);
    EXPECT_EQ(c.records[s - 1].payload, payload_for(s));
  }
  EXPECT_EQ(c.stats.last_seq, 20u);
  EXPECT_FALSE(c.stats.torn_tail_truncated);
  EXPECT_EQ(wal.last_seq(), 20u);  // ready to append 21
}

// A segment written by the byte-at-a-time codec and CRC that preceded
// the bulk-copy and slicing-by-8 kernels (bytes captured from that
// build): an 8-byte payload, a device-class checkin, an empty payload.
// It must still recover, and today's writer must produce it byte for byte.
TEST(Wal, RecoversSegmentWrittenByEarlierKernels) {
  const std::string segment_hex =
      "4352574c0100000000000000080000000102030405060708998156364352574c"
      "0200000000000000850000006100000003000000000000000100000000000000"
      "04000000000000000000d03f000000000000e0bf555555555555d53f00000000"
      "0000008004000000000000000100000000000000030000000100000000000000"
      "ffffffffffffffff02000000000000000284efc399938a87fa532d18abe07778"
      "d47123580d9292bc6654acf4e6a35de0583081d1574352574c03000000000000"
      "00000000009f144b0c";
  net::Bytes segment;
  for (std::size_t i = 0; i < segment_hex.size(); i += 2)
    segment.push_back(
        static_cast<std::uint8_t>(std::stoi(segment_hex.substr(i, 2), nullptr, 16)));

  net::CheckinMessage checkin;
  checkin.device_id = 3;
  checkin.param_version = 1;
  checkin.g_hat = {0.25, -0.5, 1.0 / 3.0, -0.0};
  checkin.ns = 4;
  checkin.ne_hat = 1;
  checkin.ny_hat = {1, -1, 2};
  checkin.device_class = 2;
  checkin.auth_tag = net::hmac_sha256(net::Bytes(16, 0x11), checkin.body());
  const std::vector<net::Bytes> payloads = {
      {1, 2, 3, 4, 5, 6, 7, 8}, checkin.serialize(), {}};

  TempDir old_dir;
  const std::string name = "/wal-00000000000000000001.log";
  {
    std::ofstream f(old_dir.path + name, std::ios::binary);
    f.write(reinterpret_cast<const char*>(segment.data()),
            static_cast<std::streamsize>(segment.size()));
  }
  WriteAheadLog recovered(old_dir.path, {});
  const Collected c = replay_all(recovered);
  ASSERT_EQ(c.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(c.records[i].seq, i + 1);
    EXPECT_EQ(c.records[i].payload, payloads[i]);
  }
  EXPECT_FALSE(c.stats.torn_tail_truncated);
  const auto parsed = net::CheckinMessage::deserialize(c.records[1].payload);
  EXPECT_EQ(parsed.g_hat, checkin.g_hat);
  EXPECT_EQ(parsed.device_class, 2);
  EXPECT_EQ(parsed.auth_tag, checkin.auth_tag);

  TempDir new_dir;
  {
    WriteAheadLog wal(new_dir.path, {});
    replay_all(wal);
    for (std::size_t i = 0; i < payloads.size(); ++i) wal.append(i + 1, payloads[i]);
  }
  std::ifstream f(new_dir.path + name, std::ios::binary);
  const net::Bytes written((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(written, segment);
}

TEST(Wal, ReplaySkipsRecordsTheSnapshotCovers) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 10; ++s) wal.append(s, payload_for(s));
  }
  WriteAheadLog wal(dir.path, {});
  const Collected c = replay_all(wal, /*from_seq=*/7);
  ASSERT_EQ(c.records.size(), 3u);
  EXPECT_EQ(c.records.front().seq, 8u);
  EXPECT_EQ(c.stats.records_skipped, 7u);
}

TEST(Wal, RotationSealsSegmentsAndReplaySpansThem) {
  TempDir dir;
  WalOptions opts;
  opts.segment_max_bytes = 1;  // every record seals its segment
  {
    WriteAheadLog wal(dir.path, opts);
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 6; ++s) wal.append(s, payload_for(s));
    EXPECT_EQ(wal.rotations(), 5);
    EXPECT_EQ(wal.segment_count(), 6u);
  }
  EXPECT_EQ(segment_files(dir.path).size(), 6u);
  WriteAheadLog wal(dir.path, opts);
  const Collected c = replay_all(wal);
  EXPECT_EQ(c.records.size(), 6u);
  EXPECT_EQ(c.stats.segments_scanned, 6u);
}

TEST(Wal, TruncateThroughRemovesOnlyCoveredSealedSegments) {
  TempDir dir;
  WalOptions opts;
  opts.segment_max_bytes = 1;
  WriteAheadLog wal(dir.path, opts);
  replay_all(wal);
  for (std::uint64_t s = 1; s <= 5; ++s) wal.append(s, payload_for(s));
  EXPECT_EQ(wal.truncate_through(3), 3u);
  EXPECT_EQ(segment_files(dir.path).size(), 2u);
  // The active segment survives even when fully covered.
  EXPECT_EQ(wal.truncate_through(100), 1u);
  EXPECT_EQ(segment_files(dir.path).size(), 1u);
  wal.append(6, payload_for(6));  // still appendable
  EXPECT_EQ(wal.last_seq(), 6u);
}

TEST(Wal, TornTailTruncatedAndLogStaysAppendable) {
  TempDir dir;
  std::uintmax_t clean_size = 0;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 5; ++s) wal.append(s, payload_for(s));
  }
  const auto files = segment_files(dir.path);
  ASSERT_EQ(files.size(), 1u);
  clean_size = std::filesystem::file_size(files[0]);
  append_garbage(files[0], 7);  // a crash mid-append left half a record
  {
    WriteAheadLog wal(dir.path, {});
    const Collected c = replay_all(wal);
    EXPECT_EQ(c.records.size(), 5u);
    EXPECT_TRUE(c.stats.torn_tail_truncated);
    EXPECT_EQ(c.stats.torn_bytes_dropped, 7u);
    EXPECT_EQ(std::filesystem::file_size(files[0]), clean_size);
    wal.append(6, payload_for(6));
  }
  WriteAheadLog wal(dir.path, {});
  const Collected c = replay_all(wal);
  EXPECT_EQ(c.records.size(), 6u);
  EXPECT_FALSE(c.stats.torn_tail_truncated);
}

TEST(Wal, TornMidRecordTailDropsOnlyTheLastRecord) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 5; ++s) wal.append(s, payload_for(s));
  }
  const auto files = segment_files(dir.path);
  ASSERT_EQ(files.size(), 1u);
  std::filesystem::resize_file(files[0],
                               std::filesystem::file_size(files[0]) - 3);
  WriteAheadLog wal(dir.path, {});
  const Collected c = replay_all(wal);
  EXPECT_EQ(c.records.size(), 4u);
  EXPECT_TRUE(c.stats.torn_tail_truncated);
  EXPECT_EQ(c.stats.last_seq, 4u);
}

TEST(Wal, MidSegmentCorruptionWithRecordsAfterRefusesRecovery) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 5; ++s) wal.append(s, payload_for(s));
  }
  const auto files = segment_files(dir.path);
  ASSERT_EQ(files.size(), 1u);
  // A bit flip in the *middle* of the active segment is corruption, not a
  // torn tail: records 3..5 behind it decode fine and may have been acked,
  // so recovery must refuse rather than silently truncate them away.
  flip_byte(files[0], 48);  // payload byte of record 2 (28-byte records)
  WriteAheadLog wal(dir.path, {});
  EXPECT_THROW(replay_all(wal), WalError);
}

TEST(Wal, BitFlipInFinalRecordStillTruncatesAsTornTail) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 5; ++s) wal.append(s, payload_for(s));
  }
  const auto files = segment_files(dir.path);
  ASSERT_EQ(files.size(), 1u);
  // Damage in the very last frame extends to EOF — indistinguishable from
  // a crash mid-append, so the torn-tail rule applies and only the final
  // record is lost.
  flip_byte(files[0], std::filesystem::file_size(files[0]) - 2);
  WriteAheadLog wal(dir.path, {});
  const Collected c = replay_all(wal);
  EXPECT_EQ(c.records.size(), 4u);
  EXPECT_TRUE(c.stats.torn_tail_truncated);
  EXPECT_EQ(c.stats.last_seq, 4u);
}

TEST(Wal, JunkBeforeLaterRecordsRefusesRecovery) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 2; ++s) wal.append(s, payload_for(s));
  }
  const auto files = segment_files(dir.path);
  ASSERT_EQ(files.size(), 1u);
  // The failure write_all_locked's rollback exists to prevent: a partial
  // write left junk mid-file and a later (valid, possibly acked) record
  // landed after it. Truncating at the junk would drop record 3 silently;
  // recovery must refuse instead.
  {
    std::ofstream f(files[0], std::ios::app | std::ios::binary);
    for (int i = 0; i < 9; ++i) f.put('\x5a');
    const net::Bytes rec3 = store::encode_wal_record(3, payload_for(3));
    f.write(reinterpret_cast<const char*>(rec3.data()),
            static_cast<std::streamsize>(rec3.size()));
  }
  WriteAheadLog wal(dir.path, {});
  EXPECT_THROW(replay_all(wal), WalError);
}

TEST(Wal, CorruptSealedSegmentRefusesRecovery) {
  TempDir dir;
  WalOptions opts;
  opts.segment_max_bytes = 1;
  {
    WriteAheadLog wal(dir.path, opts);
    replay_all(wal);
    for (std::uint64_t s = 1; s <= 4; ++s) wal.append(s, payload_for(s));
  }
  const auto files = segment_files(dir.path);
  ASSERT_GE(files.size(), 2u);
  flip_byte(files[0], 20);  // payload byte of the first (sealed) segment
  WriteAheadLog wal(dir.path, opts);
  EXPECT_THROW(replay_all(wal), WalError);
}

TEST(Wal, NonMonotonicSeqRejected) {
  TempDir dir;
  WriteAheadLog wal(dir.path, {});
  replay_all(wal);
  wal.append(5, payload_for(5));
  EXPECT_THROW(wal.append(5, payload_for(5)), WalError);
  EXPECT_THROW(wal.append(4, payload_for(4)), WalError);
  EXPECT_EQ(wal.last_seq(), 5u);
}

TEST(Wal, SequenceGapRefusedOnReplay) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    wal.append(1, payload_for(1));
    wal.append(5, payload_for(5));  // monotonic, so append allows it...
  }
  WriteAheadLog wal(dir.path, {});
  EXPECT_THROW(replay_all(wal), WalError);  // ...but replay refuses the hole
}

TEST(Wal, FsyncPolicyGovernsSyncCount) {
  const auto fsyncs_for = [](WalOptions opts) {
    TempDir dir;
    WriteAheadLog wal(dir.path, opts);
    wal.open_and_replay(0, [](std::uint64_t, const net::Bytes&) {});
    for (std::uint64_t s = 1; s <= 10; ++s) wal.append(s, payload_for(s));
    return wal.fsyncs();
  };
  WalOptions always;
  always.fsync = FsyncPolicy::kAlways;
  EXPECT_EQ(fsyncs_for(always), 10);
  WalOptions every4;
  every4.fsync = FsyncPolicy::kEveryN;
  every4.fsync_every = 4;
  EXPECT_EQ(fsyncs_for(every4), 2);
  WalOptions never;
  never.fsync = FsyncPolicy::kNever;
  EXPECT_EQ(fsyncs_for(never), 0);
}

TEST(Wal, ParseFsyncPolicy) {
  long long n = 0;
  EXPECT_EQ(store::parse_fsync_policy("always", &n), FsyncPolicy::kAlways);
  EXPECT_EQ(store::parse_fsync_policy("never", &n), FsyncPolicy::kNever);
  EXPECT_EQ(store::parse_fsync_policy("every-17", &n), FsyncPolicy::kEveryN);
  EXPECT_EQ(n, 17);
  EXPECT_THROW(store::parse_fsync_policy("sometimes", &n),
               std::invalid_argument);
  EXPECT_THROW(store::parse_fsync_policy("every-0", &n), std::invalid_argument);
}

// ---------------------------------------------------------- durable store

TEST(DurableStore, EmptyDirIsAFreshStart) {
  TempDir dir;
  core::Server server(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, {});
  const auto info = ds.recover(server);
  EXPECT_FALSE(info.snapshot_loaded);
  EXPECT_EQ(info.records_replayed, 0u);
  EXPECT_EQ(info.recovered_version, 0u);
  ds.attach(server);
  rng::Engine eng(7);
  EXPECT_TRUE(server.handle_checkin(random_checkin(eng, 1)).ok);
  EXPECT_EQ(ds.wal().last_seq(), 1u);
}

TEST(DurableStore, AttachBeforeRecoverThrows) {
  TempDir dir;
  core::Server server(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, {});
  EXPECT_THROW(ds.attach(server), WalError);
}

// The tentpole determinism guarantee: a server recovered from snapshot +
// WAL replay is byte-for-byte the server that never crashed — parameters,
// iteration, and per-device statistics — even with a compaction mid-stream.
TEST(DurableStore, RecoveredServerMatchesWitnessByteForByte) {
  TempDir dir;
  core::Server witness(config(), sgd(), rng::Engine(1));

  DurableStoreOptions opts;
  opts.wal.segment_max_bytes = 256;  // force several rotations
  {
    core::Server live(config(), sgd(), rng::Engine(1));
    DurableStore ds(dir.path, opts);
    ds.recover(live);
    ds.attach(live);
    rng::Engine eng(42);
    for (int i = 0; i < 60; ++i) {
      const auto msg = random_checkin(eng, 1 + (eng() % 4));
      const auto live_ack = live.handle_checkin(msg);
      const auto wit_ack = witness.handle_checkin(msg);
      ASSERT_EQ(live_ack.ok, wit_ack.ok);
      if (i == 30) ASSERT_TRUE(ds.compact(live));
    }
    // SIGKILL: no sync, no clean shutdown — the store just goes away.
  }

  core::Server recovered(config(), sgd(), rng::Engine(777));
  DurableStore ds(dir.path, opts);
  const auto info = ds.recover(recovered);
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_GT(info.records_replayed, 0u);
  expect_same_state(recovered, witness);

  // And the recovered server keeps marching in lockstep.
  ds.attach(recovered);
  rng::Engine eng(43);
  const auto next = random_checkin(eng, 2);
  recovered.handle_checkin(next);
  witness.handle_checkin(next);
  EXPECT_EQ(recovered.parameters(), witness.parameters());
}

TEST(DurableStore, TornTailRecoversToLastDurableIteration) {
  TempDir dir;
  {
    core::Server live(config(), sgd(), rng::Engine(1));
    DurableStore ds(dir.path, {});
    ds.recover(live);
    ds.attach(live);
    rng::Engine eng(5);
    for (int i = 0; i < 8; ++i)
      ASSERT_TRUE(live.handle_checkin(random_checkin(eng, 1)).ok);
  }
  const auto files = segment_files(dir.path);
  ASSERT_EQ(files.size(), 1u);
  std::filesystem::resize_file(files[0],
                               std::filesystem::file_size(files[0]) - 5);

  core::Server recovered(config(), sgd(), rng::Engine(2));
  DurableStore ds(dir.path, {});
  const auto info = ds.recover(recovered);
  EXPECT_TRUE(info.torn_tail_truncated);
  EXPECT_EQ(info.recovered_version, 7u);  // record 8 was torn
  ds.attach(recovered);
  rng::Engine eng(6);
  EXPECT_TRUE(recovered.handle_checkin(random_checkin(eng, 2)).ok);
  EXPECT_EQ(recovered.version(), 8u);
  EXPECT_EQ(ds.wal().last_seq(), 8u);
}

TEST(DurableStore, CorruptNewestSnapshotFallsBackToOlder) {
  TempDir dir;
  DurableStoreOptions opts;
  opts.wal.segment_max_bytes = 1;  // worst case: every record its own segment
  opts.keep_snapshots = 2;
  core::Server witness(config(), sgd(), rng::Engine(1));
  {
    core::Server live(config(), sgd(), rng::Engine(1));
    DurableStore ds(dir.path, opts);
    ds.recover(live);
    ds.attach(live);
    rng::Engine eng(11);
    const auto feed = [&](int n) {
      for (int i = 0; i < n; ++i) {
        const auto msg = random_checkin(eng, 1 + (eng() % 3));
        live.handle_checkin(msg);
        witness.handle_checkin(msg);
      }
    };
    feed(10);
    ASSERT_TRUE(ds.compact(live));  // snapshot v10
    feed(10);
    ASSERT_TRUE(ds.compact(live));  // snapshot v20; wal pruned through v10
    feed(5);
  }
  // The v20 snapshot rots on disk.
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name.find("20.bin") != std::string::npos)
      flip_byte(e.path().string(), std::filesystem::file_size(e.path()) / 2);
  }

  core::Server recovered(config(), sgd(), rng::Engine(9));
  DurableStore ds(dir.path, opts);
  const auto info = ds.recover(recovered);
  EXPECT_EQ(info.corrupt_snapshots_skipped, 1u);
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.snapshot_version, 10u);
  // Records 11..25 must still be in the WAL (compaction keeps the tail the
  // *oldest kept* snapshot needs), so recovery reaches iteration 25.
  EXPECT_EQ(info.recovered_version, 25u);
  expect_same_state(recovered, witness);
}

TEST(DurableStore, CompactPrunesSnapshotsAndSegments) {
  TempDir dir;
  DurableStoreOptions opts;
  opts.wal.segment_max_bytes = 1;
  opts.keep_snapshots = 1;
  core::Server live(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, opts);
  ds.recover(live);
  ds.attach(live);
  rng::Engine eng(3);
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 5; ++i) live.handle_checkin(random_checkin(eng, 1));
    ASSERT_TRUE(ds.compact(live));
    EXPECT_EQ(snapshot_count(dir.path), 1u);
    // Everything but the active segment is covered by the snapshot.
    EXPECT_LE(segment_files(dir.path).size(), 1u);
  }
  EXPECT_EQ(ds.compactions(), 3);
  EXPECT_EQ(ds.compaction_failures(), 0);
}

TEST(DurableStore, AppendFailureNacksButServerAdvances) {
  TempDir dir;
  core::Server server(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, {});
  ds.recover(server);
  ds.attach(server);
  rng::Engine eng(8);
  ASSERT_TRUE(server.handle_checkin(random_checkin(eng, 1)).ok);

  // Sabotage the log: a foreign high seq makes every hook append
  // non-monotonic, the closest portable stand-in for a dead disk.
  ds.wal().append(1000, payload_for(1000));
  const auto ack = server.handle_checkin(random_checkin(eng, 1));
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.reason, "durability failure");
  // The update was applied in memory (version advanced) but never acked.
  EXPECT_EQ(server.version(), 2u);
  EXPECT_GE(ds.append_failures(), 1);
}

TEST(DurableStore, RespectsLegacyCheckpointRestoredState) {
  TempDir dir;
  core::Server server(config(), sgd(), rng::Engine(1));
  server.restore(linalg::Vector(config().param_dim, 0.25), 3, {});
  DurableStore ds(dir.path, {});
  const auto info = ds.recover(server);
  EXPECT_EQ(info.recovered_version, 3u);
  ds.attach(server);
  rng::Engine eng(12);
  ASSERT_TRUE(server.handle_checkin(random_checkin(eng, 1)).ok);
  EXPECT_EQ(ds.wal().last_seq(), 4u);  // WAL seq continues from the version
}

TEST(DurableStore, RecoverTwiceThrows) {
  TempDir dir;
  core::Server server(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, {});
  ds.recover(server);
  EXPECT_THROW(ds.recover(server), WalError);
}

// ------------------------------------------------------- group commit

TEST(Wal, AppendBatchGroupCommitsWithOneFsync) {
  TempDir dir;
  WalOptions opts;
  opts.fsync = FsyncPolicy::kAlways;
  {
    WriteAheadLog wal(dir.path, opts);
    replay_all(wal);
    store::WalBatch batch;
    for (std::uint64_t s = 1; s <= 16; ++s) batch.add(s, payload_for(s));
    wal.append(batch);
    EXPECT_EQ(wal.fsyncs(), 1);  // one fsync for 16 records
    EXPECT_EQ(wal.last_seq(), 16u);
    EXPECT_EQ(wal.appended_records(), 16);
  }
  WriteAheadLog wal(dir.path, {});
  const Collected c = replay_all(wal);
  ASSERT_EQ(c.records.size(), 16u);
  for (std::uint64_t s = 1; s <= 16; ++s)
    EXPECT_EQ(c.records[s - 1].payload, payload_for(s));
}

TEST(Wal, AppendBatchEmptyIsNoOp) {
  TempDir dir;
  WalOptions opts;
  opts.fsync = FsyncPolicy::kAlways;
  WriteAheadLog wal(dir.path, opts);
  replay_all(wal);
  wal.append(store::WalBatch{});
  EXPECT_EQ(wal.fsyncs(), 0);
  EXPECT_EQ(wal.last_seq(), 0u);
}

TEST(Wal, AppendBatchStopsAtFirstBadRecord) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path, {});
    replay_all(wal);
    wal.append(batch_of({1, 2}));
    // Seq 3 lands, the duplicate 3 throws, 4 is never attempted.
    EXPECT_THROW(wal.append(batch_of({3, 3, 4})), WalError);
    EXPECT_EQ(wal.last_seq(), 3u);  // callers recover via last_seq()
    wal.append(4, payload_for(4));  // log stays appendable
    wal.sync();
  }
  WriteAheadLog wal(dir.path, {});
  const Collected c = replay_all(wal);
  EXPECT_EQ(c.records.size(), 4u);
}

TEST(Wal, AppendBatchRotatesSegmentsLikeSingleAppends) {
  TempDir dir;
  WalOptions opts;
  opts.segment_max_bytes = 1;  // every record seals a segment
  WriteAheadLog wal(dir.path, opts);
  replay_all(wal);
  wal.append(batch_of({1, 2, 3, 4, 5}));
  EXPECT_EQ(segment_files(dir.path).size(), 5u);
  EXPECT_EQ(wal.rotations(), 4);
}

// One append of a framed batch writes the same files, byte for byte, as
// record-at-a-time appends — segment boundaries included — and costs one
// write(2) per segment it touches.
TEST(Wal, BatchWrittenWithOneWritePerSegmentMatchesPerRecordBytes) {
  std::vector<store::WalRecord> records;
  for (std::uint64_t s = 1; s <= 12; ++s)
    records.push_back({s, net::Bytes(8 + 7 * s, static_cast<std::uint8_t>(s))});
  // Read the counter once before measuring with it: in an
  // -fsanitize=undefined build the first read is followed by a few
  // writes that are not the log's.
  write_syscalls();
  for (const std::size_t segment_max : {std::size_t{4u << 20}, std::size_t{150}}) {
    SCOPED_TRACE("segment_max_bytes " + std::to_string(segment_max));
    WalOptions opts;
    opts.fsync = FsyncPolicy::kAlways;
    opts.segment_max_bytes = segment_max;
    TempDir per_record, batched;
    {
      WriteAheadLog wal(per_record.path, opts);
      replay_all(wal);
      for (const auto& r : records) wal.append(r.seq, r.payload);
    }
    long long writes = 0;
    std::size_t segments_touched = 0;
    {
      WriteAheadLog wal(batched.path, opts);
      replay_all(wal);
      // Three records first, so the batch starts inside a segment.
      for (std::size_t i = 0; i < 3; ++i)
        wal.append(records[i].seq, records[i].payload);
      const std::size_t segments_before = wal.segment_count();
      store::WalBatch batch;
      for (std::size_t i = 3; i < records.size(); ++i)
        batch.add(records[i].seq, records[i].payload);
      const long long before = write_syscalls();
      wal.append(batch);
      writes = write_syscalls() - before;
      segments_touched = wal.segment_count() - segments_before + 1;
      EXPECT_EQ(wal.last_seq(), 12u);
      EXPECT_EQ(wal.fsyncs(), 3 + static_cast<long long>(segments_touched));
    }
    EXPECT_EQ(dir_contents(batched.path), dir_contents(per_record.path));
    if (segment_max == 150) {
      EXPECT_GT(segments_touched, 2u);
    }
    if (write_syscalls() >= 0) {
      EXPECT_EQ(writes, static_cast<long long>(segments_touched));
    }
  }
}

TEST(DurableStore, GroupCommitBuffersUntilCommitThenOneFsync) {
  TempDir dir;
  DurableStoreOptions opts;
  opts.wal.fsync = FsyncPolicy::kAlways;
  core::Server server(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, opts);
  ds.recover(server);
  ds.attach(server);
  ds.set_group_commit(true);
  EXPECT_TRUE(ds.group_commit());

  rng::Engine eng(7);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(server.handle_checkin(random_checkin(eng, 1 + i % 3)).ok);
  // Nothing reached the log yet — the acks are the caller's to hold.
  EXPECT_EQ(ds.wal().last_seq(), 0u);
  EXPECT_EQ(ds.wal().fsyncs(), 0);

  ASSERT_TRUE(ds.commit_group());
  EXPECT_EQ(ds.wal().last_seq(), 8u);
  EXPECT_EQ(ds.wal().fsyncs(), 1);
  ASSERT_TRUE(ds.commit_group());  // empty commit is a cheap no-op
  EXPECT_EQ(ds.wal().fsyncs(), 1);
}

TEST(DurableStore, GroupCommitFailureReportsAndDoesNotPoison) {
  TempDir dir;
  core::Server server(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, {});
  ds.recover(server);
  ds.attach(server);
  ds.set_group_commit(true);

  ds.wal().append(1000, payload_for(1000));  // dead-disk stand-in
  rng::Engine eng(8);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(server.handle_checkin(random_checkin(eng, 1)).ok);
  EXPECT_FALSE(ds.commit_group());
  EXPECT_GE(ds.append_failures(), 3);
  // The failed batch is not re-reported forever: records the log already
  // covers (by seq) are dropped, and the store keeps serving.
  EXPECT_TRUE(ds.commit_group());
}

// A failed commit puts its records back ahead of everything buffered
// after it, so the next commit writes the log without a hole.
TEST(DurableStore, FailedCommitRequeuesAheadOfLaterRecords) {
  TempDir dir;
  DurableStoreOptions opts;
  opts.wal.fsync = FsyncPolicy::kAlways;
  opts.wal.segment_max_bytes = 1;  // every record opens its own segment
  core::Server witness(config(), sgd(), rng::Engine(1));
  {
    core::Server live(config(), sgd(), rng::Engine(1));
    DurableStore ds(dir.path, opts);
    ds.recover(live);
    ds.attach(live);
    ds.set_group_commit(true);
    // Record 1's segment cannot be created while a directory holds its
    // name: a transient disk fault.
    const std::string squatter = dir.path + "/wal-00000000000000000001.log";
    std::filesystem::create_directory(squatter);
    rng::Engine eng(12);
    for (int i = 0; i < 3; ++i) {
      const auto msg = random_checkin(eng, 1 + i);
      ASSERT_TRUE(live.handle_checkin(msg).ok);
      ASSERT_TRUE(witness.handle_checkin(msg).ok);
    }
    const long long failures_before = ds.append_failures();
    EXPECT_FALSE(ds.commit_group());
    EXPECT_EQ(ds.append_failures() - failures_before, 3);
    EXPECT_EQ(ds.wal().last_seq(), 0u);
    for (int i = 0; i < 2; ++i) {
      const auto msg = random_checkin(eng, 4 + i);
      ASSERT_TRUE(live.handle_checkin(msg).ok);
      ASSERT_TRUE(witness.handle_checkin(msg).ok);
    }
    std::filesystem::remove(squatter);
    ASSERT_TRUE(ds.commit_group());
    EXPECT_EQ(ds.wal().last_seq(), 5u);
  }
  core::Server recovered(config(), sgd(), rng::Engine(3));
  DurableStore ds(dir.path, opts);
  EXPECT_EQ(ds.recover(recovered).records_replayed, 5u);
  expect_same_state(recovered, witness);
}

// The applied hook buffers the next batch while commit_group writes and
// fsyncs the last one on another thread (the pipelined applier's shape);
// the log still holds every record once, in order.
TEST(DurableStore, AppliedHookRunsConcurrentlyWithCommitGroup) {
  TempDir dir;
  DurableStoreOptions opts;
  opts.wal.fsync = FsyncPolicy::kAlways;
  core::Server witness(config(), sgd(), rng::Engine(1));
  std::uint64_t live_version = 0;
  {
    core::Server live(config(), sgd(), rng::Engine(1));
    DurableStore ds(dir.path, opts);
    ds.recover(live);
    ds.attach(live);
    ds.set_group_commit(true);
    std::atomic<bool> done{false};
    std::atomic<long long> commits{0};
    std::thread committer([&] {
      while (!done.load()) {
        EXPECT_TRUE(ds.commit_group());
        ++commits;
      }
    });
    // Apply until several commits have run during the stream.
    rng::Engine eng(13);
    for (int i = 0; i < 300 || (commits.load() < 3 && i < 100'000); ++i) {
      const auto msg = random_checkin(eng, 1 + (eng() % 8));
      ASSERT_EQ(live.handle_checkin(msg).ok, witness.handle_checkin(msg).ok);
    }
    done.store(true);
    committer.join();
    ASSERT_TRUE(ds.commit_group());
    EXPECT_GE(commits.load(), 3);
    EXPECT_EQ(ds.wal().last_seq(), live.version());
    live_version = live.version();
  }
  core::Server recovered(config(), sgd(), rng::Engine(4));
  DurableStore ds(dir.path, opts);
  EXPECT_EQ(ds.recover(recovered).records_replayed, live_version);
  expect_same_state(recovered, witness);
}

TEST(DurableStore, SyncFlushesGroupBuffer) {
  TempDir dir;
  core::Server server(config(), sgd(), rng::Engine(1));
  DurableStore ds(dir.path, {});
  ds.recover(server);
  ds.attach(server);
  ds.set_group_commit(true);
  rng::Engine eng(9);
  ASSERT_TRUE(server.handle_checkin(random_checkin(eng, 1)).ok);
  EXPECT_EQ(ds.wal().last_seq(), 0u);
  ds.sync();
  EXPECT_EQ(ds.wal().last_seq(), 1u);
}

TEST(DurableStore, GroupCommittedStateRecoversByteForByte) {
  TempDir dir;
  core::Server witness(config(), sgd(), rng::Engine(1));
  DurableStoreOptions opts;
  opts.wal.fsync = FsyncPolicy::kAlways;
  opts.wal.segment_max_bytes = 512;  // a rotation or two mid-batch
  {
    core::Server live(config(), sgd(), rng::Engine(1));
    DurableStore ds(dir.path, opts);
    ds.recover(live);
    ds.attach(live);
    ds.set_group_commit(true);
    rng::Engine eng(42);
    for (int batch = 0; batch < 6; ++batch) {
      for (int i = 0; i < 7; ++i) {
        const auto msg = random_checkin(eng, 1 + (eng() % 4));
        ASSERT_EQ(live.handle_checkin(msg).ok, witness.handle_checkin(msg).ok);
      }
      ASSERT_TRUE(ds.commit_group());
    }
    // Crash: destructor only, no sync.
  }
  core::Server recovered(config(), sgd(), rng::Engine(777));
  DurableStore ds(dir.path, opts);
  const auto info = ds.recover(recovered);
  EXPECT_EQ(info.records_replayed, 42u);
  expect_same_state(recovered, witness);
}
