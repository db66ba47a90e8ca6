// crowdml-server — a standalone Crowd-ML parameter server over TCP.
//
//   crowdml-server --port 9000 --classes 10 --dim 50 [--wal-dir DIR] ...
//
// Every flag is documented in tools/flags.hpp (parse_server_flags and the
// flag bundles above it); the tiers they select are composed by
// node::Node (src/node/node.hpp, docs/ARCHITECTURE.md).
//
// With --wal-dir, every applied checkin is appended to a write-ahead log
// before its ack leaves, and each report interval compacts the log into
// an atomic snapshot; after a crash the server recovers the exact
// pre-crash state (snapshot + WAL tail replay) before accepting
// connections. See docs/DURABILITY.md.
//
// Everything exported via --metrics-out / --trace-out is post-sanitization
// or transport-level (see docs/OBSERVABILITY.md) — publishing it costs no
// extra privacy budget, same argument as the portal report.
//
// Device secrets are written to --keys-out as "device_id,hex_key" rows;
// hand one row to each device (crowdml_device --key-file takes the same
// format). The server runs until the stopping criteria are met or SIGINT.
// It exits 1 when it refuses its command line or cannot start, and when
// a follower stops on a fatal local error or a failed promotion.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "node/node.hpp"
#include "tools/flags.hpp"

using namespace crowdml;

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<node::Node> node;
  try {
    node = node::Node::build(
        tools::parse_server_flags(tools::Flags(argc, argv)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crowdml-server: %s\n", e.what());
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  int rc = 0;
  while (!g_stop.load() && !node->stopped()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (!node->tick()) {
      rc = 1;
      break;
    }
  }
  node->shutdown();
  return rc;
}
