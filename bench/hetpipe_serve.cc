// hetpipe_serve: the partition-plan daemon. Answers plan / max_nm / stats /
// shutdown queries over length-prefixed JSON-over-TCP (docs/serve-protocol.md
// is the wire reference), sharing one runner::PartitionCache across every
// connection so repeated queries cost a cache lookup instead of a GPU-order
// search. Pairs with bench/serve_client (one-shot CLI) and bench/serve_bench
// (load generator).
//
// Flags: --host=ADDR          bind address (default 127.0.0.1)
//        --port=N             listen port; 0 picks an ephemeral one (default)
//        --port-file=PATH     write the bound port there (scripts and CI use
//                             this with --port=0 to avoid collisions)
//        --threads=N          request-executor threads (default: hardware)
//        --cache-file=PATH    persistent cache: loaded at startup, saved
//                             periodically and on shutdown (a file that
//                             fails to load is left as is, never saved over)
//        --save-interval-s=N  seconds between periodic cache saves (default
//                             30; needs --cache-file)
//        --cache-capacity=N   LRU bound on cache entries (default 0:
//                             unbounded, matching the batch benches)
//        --max-frame-bytes=N  refuse frames larger than this (default 1 MiB)
//
// Runs until SIGINT/SIGTERM or a remote "shutdown" op, then drains in-flight
// requests, persists the cache, and exits 0. Exits 2 on bad flags, 1 when the
// listener cannot start.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "runner/cli.h"
#include "runner/partition_cache.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  using namespace hetpipe;

  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  serve::PlanServerOptions options;
  options.cache_path = args.cache_path();
  std::string port_file;
  int64_t cache_capacity = 0;

  for (const std::string& arg : args.rest) {
    int parsed = 0;
    if (arg.rfind("--host=", 0) == 0) {
      options.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(7), &parsed) || parsed < 0 || parsed > 65535) {
        std::fprintf(stderr, "error: --port needs an integer in [0, 65535]\n");
        return 2;
      }
      options.port = parsed;
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
    } else if (arg.rfind("--save-interval-s=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(18), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --save-interval-s needs a positive integer\n");
        return 2;
      }
      options.save_interval_s = parsed;
    } else if (arg.rfind("--cache-capacity=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(17), &parsed) || parsed < 0) {
        std::fprintf(stderr, "error: --cache-capacity needs a non-negative integer\n");
        return 2;
      }
      cache_capacity = parsed;
    } else if (arg.rfind("--max-frame-bytes=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(18), &parsed) || parsed < 64) {
        std::fprintf(stderr, "error: --max-frame-bytes needs an integer >= 64\n");
        return 2;
      }
      options.max_frame_bytes = static_cast<uint32_t>(parsed);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  options.threads = args.threads;

  // The daemon always has a cache (it is the point of the service); the
  // BenchArgs one only exists under --cache-file, where it arrives pre-loaded.
  runner::PartitionCache local_cache;
  runner::PartitionCache* cache = args.cache() ? args.cache() : &local_cache;
  if (cache_capacity > 0) cache->SetCapacity(cache_capacity);

  serve::PlanServer server(cache, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "hetpipe_serve: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%d\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "hetpipe_serve: cannot write --port-file %s\n", port_file.c_str());
      server.RequestShutdown();
      server.Join();
      return 1;
    }
  }
  std::printf("hetpipe_serve listening on %s:%d\n", options.host.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signal == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.RequestShutdown();
  server.Join();

  const serve::PlanService& service = server.service();
  std::printf("hetpipe_serve: drained; %lld requests (%lld errors), cache %lld entries, "
              "%lld hits / %lld misses / %lld evictions\n",
              static_cast<long long>(service.requests()), static_cast<long long>(service.errors()),
              static_cast<long long>(cache->size()), static_cast<long long>(cache->hits()),
              static_cast<long long>(cache->misses()), static_cast<long long>(cache->evictions()));
  return 0;
}
