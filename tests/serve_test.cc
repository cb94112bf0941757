#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <random>
#include <thread>
#include <variant>
#include <vector>

#include "core/experiment.h"
#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "partition/partitioner.h"
#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace hetpipe::serve {
namespace {

// ---- Framing ----

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(FramingTest, RoundTripsPayloads) {
  SocketPair pair;
  std::string error;
  for (const std::string& payload : {std::string("{}"), std::string("{\"k\":\"v\"}"),
                                    std::string(100000, 'x'), std::string()}) {
    ASSERT_TRUE(WriteFrame(pair.fds[0], payload, kDefaultMaxFrameBytes, &error)) << error;
    std::string read_back;
    ASSERT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &read_back, &error),
              FrameResult::kFrame)
        << error;
    EXPECT_EQ(read_back, payload);
  }
}

TEST(FramingTest, EofAtBoundaryVsMidFrame) {
  {
    SocketPair pair;
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    std::string payload, error;
    EXPECT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &payload, &error),
              FrameResult::kEof);
  }
  {
    SocketPair pair;
    // A length prefix promising 100 bytes, then EOF: a truncated frame.
    const uint32_t len = 100;
    char prefix[4];
    std::memcpy(prefix, &len, 4);
    ASSERT_EQ(::send(pair.fds[0], prefix, 4, 0), 4);
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    std::string payload, error;
    EXPECT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &payload, &error),
              FrameResult::kError);
    EXPECT_FALSE(error.empty());
  }
}

TEST(FramingTest, RefusesOversizedFrames) {
  SocketPair pair;
  std::string error;
  EXPECT_FALSE(WriteFrame(pair.fds[0], std::string(200, 'x'), 64, &error));
  EXPECT_FALSE(error.empty());

  // An oversized length prefix is refused before any payload is read.
  const uint32_t len = 1u << 30;
  char prefix[4];
  std::memcpy(prefix, &len, 4);
  ASSERT_EQ(::send(pair.fds[0], prefix, 4, 0), 4);
  std::string payload;
  error.clear();
  EXPECT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &payload, &error),
            FrameResult::kError);
  EXPECT_FALSE(error.empty());
}

// ---- JSON reader ----

TEST(JsonReaderTest, DecodesFlatObjects) {
  std::map<std::string, JsonValue> object;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(
      R"({"s":"a\nbA","n":-1.5e2,"t":true,"f":false,"z":null,"raw":{"x":[1,2]}})",
      &object, &error))
      << error;
  EXPECT_EQ(object.at("s").type, JsonValue::Type::kString);
  EXPECT_EQ(object.at("s").str, "a\nbA");
  EXPECT_EQ(object.at("n").type, JsonValue::Type::kNumber);
  EXPECT_EQ(object.at("n").num, -150.0);
  EXPECT_TRUE(object.at("t").boolean);
  EXPECT_FALSE(object.at("f").boolean);
  EXPECT_EQ(object.at("z").type, JsonValue::Type::kNull);
  EXPECT_EQ(object.at("raw").type, JsonValue::Type::kRaw);
  EXPECT_EQ(object.at("raw").str, R"({"x":[1,2]})");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  std::map<std::string, JsonValue> object;
  std::string error;
  for (const char* bad : {"", "[1]", "{\"a\":}", "{\"a\":1", "{\"a\":1}x", "{'a':1}",
                          "{\"a\":01e}", "{\"a\" 1}"}) {
    EXPECT_FALSE(ParseJsonObject(bad, &object, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonReaderTest, LaterDuplicateKeyWins) {
  std::map<std::string, JsonValue> object;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(R"({"a":1,"a":2})", &object, &error));
  EXPECT_EQ(object.at("a").num, 2.0);
}

// ---- Request decode / encode ----

TEST(PlanRequestTest, ToJsonParseRoundTrip) {
  PlanRequest request;
  request.op = "max_nm";
  request.id = "req-42";
  request.cluster_nodes = "VRQ";
  request.model = "vgg19";
  request.selector = "VVQQ";
  request.nm = 3;
  request.nm_cap = 5;
  request.batch_size = 64;
  request.search_orders = false;

  PlanRequest decoded;
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  ASSERT_TRUE(ParsePlanRequest(request.ToJson(), &decoded, &code, &error)) << error;
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.cluster_nodes, request.cluster_nodes);
  EXPECT_EQ(decoded.model, request.model);
  EXPECT_EQ(decoded.selector, request.selector);
  EXPECT_EQ(decoded.nm, request.nm);
  EXPECT_EQ(decoded.nm_cap, request.nm_cap);
  EXPECT_EQ(decoded.batch_size, request.batch_size);
  EXPECT_EQ(decoded.search_orders, request.search_orders);
}

TEST(PlanRequestTest, RejectsBadRequests) {
  PlanRequest out;
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  // Not JSON at all.
  EXPECT_FALSE(ParsePlanRequest("nope", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadJson);
  // Wrong protocol version.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":99,"op":"plan","selector":"VVQQ"})", &out, &code,
                                &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // Unknown op.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":1,"op":"dance"})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // plan needs a selector.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":1,"op":"plan"})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // nm out of range.
  EXPECT_FALSE(
      ParsePlanRequest(R"({"v":1,"op":"plan","selector":"VVQQ","nm":0})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // Ill-typed field.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":1,"op":"plan","selector":7})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
}

// ---- PlanService ----

TEST(PlanServiceTest, PlanHitsCacheOnRepeat) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  PlanRequest request;
  request.selector = "VVQQ";

  const runner::ResultRow miss = service.Handle(request);
  EXPECT_EQ(miss.Get("ok"), "true");
  EXPECT_EQ(miss.Get("feasible"), "true");
  EXPECT_EQ(miss.Get("cache_hit"), "false");
  EXPECT_EQ(miss.Get("num_stages"), "4");
  // A success row must not carry an error_code at all — Find distinguishes
  // the absent field from an empty value, which Get cannot.
  EXPECT_EQ(miss.Find("error_code"), std::nullopt);

  const runner::ResultRow hit = service.Handle(request);
  EXPECT_EQ(hit.Get("ok"), "true");
  EXPECT_EQ(hit.Get("cache_hit"), "true");
  // The cached answer is the cold answer, field for field.
  EXPECT_EQ(hit.Get("bottleneck_time_s"), miss.Get("bottleneck_time_s"));
  EXPECT_EQ(hit.Get("sum_time_s"), miss.Get("sum_time_s"));
  EXPECT_EQ(hit.Get("stages"), miss.Get("stages"));
  EXPECT_EQ(service.requests(), 2);
  EXPECT_EQ(service.errors(), 0);
  EXPECT_EQ(service.contexts(), 1);
}

TEST(PlanServiceTest, ContextMemoIsAFifoBoundedAt64) {
  // Sixty-five distinct specs fill the context memo past its bound; the
  // oldest is dropped, and re-sending it rebuilds a context that answers
  // exactly what the first one did. A one-entry partition cache makes the
  // re-sent plan a cold solve too, so only the latency may differ.
  runner::PartitionCache cache;
  cache.SetCapacity(1);
  PlanService service(&cache);
  auto request_for = [](int i) {
    PlanRequest request;
    request.selector = "VVQQ";
    request.cluster_spec = "node 4xV; node 4xQ; inter_gbits " + std::to_string(10 + i);
    return request;
  };
  auto without_latency = [](const runner::ResultRow& row) {
    runner::ResultRow out;
    for (const auto& field : row.fields()) {
      if (field.first == "latency_us") continue;
      std::visit([&](const auto& v) { out.Set(field.first, v); }, field.second);
    }
    return runner::RowToJson(out);
  };

  const runner::ResultRow first = service.Handle(request_for(0));
  ASSERT_EQ(first.Get("ok"), "true") << first.Get("error");
  for (int i = 1; i < 65; ++i) {
    ASSERT_EQ(service.Handle(request_for(i)).Get("ok"), "true") << i;
  }
  EXPECT_EQ(service.contexts(), 64);

  const runner::ResultRow again = service.Handle(request_for(0));
  EXPECT_EQ(service.contexts(), 64);
  EXPECT_EQ(again.Get("cache_hit"), "false");
  EXPECT_EQ(without_latency(again), without_latency(first));
}

TEST(PlanServiceTest, PlanMatchesDirectPartitioner) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  PlanRequest request;
  request.selector = "VVQQ";
  request.nm = 2;
  const runner::ResultRow row = service.Handle(request);
  ASSERT_EQ(row.Get("ok"), "true");

  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 2;
  const partition::Partition direct =
      partitioner.Solve(core::PickGpus(cluster, "VVQQ"), options);
  runner::ResultRow expected;
  expected.Set("bottleneck", direct.bottleneck_time);
  EXPECT_EQ(row.Get("bottleneck_time_s"), expected.Get("bottleneck"));
  EXPECT_EQ(row.Get("num_stages"), std::to_string(direct.num_stages()));
}

TEST(PlanServiceTest, MaxNmMatchesPartitionerAndReportsCacheHit) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  PlanRequest request;
  request.op = "max_nm";
  request.selector = "VVQQ";
  request.nm_cap = 7;

  const runner::ResultRow cold = service.Handle(request);
  ASSERT_EQ(cold.Get("ok"), "true");
  EXPECT_EQ(cold.Get("cache_hit"), "false");

  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const int expected = partitioner.FindMaxNm(core::PickGpus(cluster, "VVQQ"), 7);
  EXPECT_EQ(cold.Get("max_nm"), std::to_string(expected));

  // Every probe of the repeat comes from the cache.
  const runner::ResultRow warm = service.Handle(request);
  EXPECT_EQ(warm.Get("cache_hit"), "true");
  EXPECT_EQ(warm.Get("max_nm"), cold.Get("max_nm"));
}

TEST(PlanServiceTest, ClassifiesErrors) {
  runner::PartitionCache cache;
  PlanService service(&cache);

  PlanRequest bad_model;
  bad_model.selector = "VVQQ";
  bad_model.model = "alexnet";
  EXPECT_EQ(service.Handle(bad_model).Get("error_code"), "bad_model");

  PlanRequest bad_spec;
  bad_spec.selector = "VVQQ";
  bad_spec.cluster_spec = "node 0xV";
  EXPECT_EQ(service.Handle(bad_spec).Get("error_code"), "bad_spec");

  PlanRequest bad_selector;
  bad_selector.selector = "A100*64";
  EXPECT_EQ(service.Handle(bad_selector).Get("error_code"), "bad_selector");

  EXPECT_EQ(service.errors(), 3);
  EXPECT_EQ(service.requests(), 3);
}

TEST(PlanServiceTest, HandleJsonReportsShutdownAndStats) {
  runner::PartitionCache cache;
  PlanService service(&cache);

  bool shutdown = false;
  runner::ResultRow row = service.HandleJson(R"({"v":1,"op":"stats"})", &shutdown);
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(row.Get("ok"), "true");
  EXPECT_EQ(row.Get("cache_size"), "0");

  row = service.HandleJson(R"({"v":1,"op":"shutdown"})", &shutdown);
  EXPECT_TRUE(shutdown);
  EXPECT_EQ(row.Get("ok"), "true");

  // A parse failure is an error response, never an exception — and not a
  // shutdown.
  row = service.HandleJson("not json", &shutdown);
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(row.Get("ok"), "false");
  EXPECT_EQ(row.Find("error_code"), "bad_json");
}

// ---- End-to-end over sockets ----

TEST(PlanServerTest, ServesPlansOverTcp) {
  runner::PartitionCache cache;
  PlanServerOptions options;
  options.threads = 4;
  PlanServer server(&cache, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  PlanClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  PlanRequest request;
  request.selector = "VVQQ";
  request.id = "e2e";
  std::map<std::string, JsonValue> response;
  ASSERT_TRUE(client.Call(request, &response, &error)) << error;
  EXPECT_TRUE(response.at("ok").boolean);
  EXPECT_EQ(response.at("id").str, "e2e");
  EXPECT_FALSE(response.at("cache_hit").boolean);
  EXPECT_EQ(response.at("num_stages").num, 4.0);

  ASSERT_TRUE(client.Call(request, &response, &error)) << error;
  EXPECT_TRUE(response.at("cache_hit").boolean);

  server.RequestShutdown();
  server.Join();
}

TEST(PlanServerTest, ConcurrentClientsAllGetAnswers) {
  runner::PartitionCache cache;
  PlanServerOptions options;
  options.threads = 4;
  PlanServer server(&cache, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 10;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PlanClient client;
      std::string client_error;
      if (!client.Connect("127.0.0.1", server.port(), &client_error)) return;
      for (int i = 0; i < kCallsPerClient; ++i) {
        PlanRequest request;
        request.selector = (c % 2 == 0) ? "VVQQ" : "VRGQ";
        request.nm = 1 + (i % 3);
        std::map<std::string, JsonValue> response;
        if (client.Call(request, &response, &client_error) && response.at("ok").boolean) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * kCallsPerClient);
  EXPECT_EQ(server.service().requests(), kClients * kCallsPerClient);

  server.RequestShutdown();
  server.Join();
}

TEST(PlanServerTest, RemoteShutdownDrainsAndPersistsCache) {
  const std::string path = testing::TempDir() + "hetpipe_serve_test_cache.bin";
  std::remove(path.c_str());

  runner::PartitionCache cache;
  PlanServerOptions options;
  options.threads = 2;
  options.cache_path = path;
  options.save_interval_s = 3600;  // only the final snapshot should fire
  PlanServer server(&cache, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  PlanClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  PlanRequest plan;
  plan.selector = "VVQQ";
  std::map<std::string, JsonValue> response;
  ASSERT_TRUE(client.Call(plan, &response, &error)) << error;
  ASSERT_TRUE(response.at("ok").boolean);

  PlanRequest shutdown;
  shutdown.op = "shutdown";
  ASSERT_TRUE(client.Call(shutdown, &response, &error)) << error;
  EXPECT_TRUE(response.at("ok").boolean);
  server.Join();
  EXPECT_TRUE(server.shutdown_requested());

  // The final snapshot is loadable and holds the solved plan.
  runner::PartitionCache reloaded;
  ASSERT_TRUE(reloaded.Load(path, &error)) << error;
  EXPECT_EQ(reloaded.size(), 1);
  std::remove(path.c_str());
}

// ---- Fuzz-style robustness: mutated frames and adversarial JSON must come
// ---- back as stable bad_frame / bad_json / bad_request errors — never a
// ---- crash, hang, or exception. Deterministic (fixed seeds), and the CI
// ---- Debug job runs this under ASan/UBSan, which is where frame-length and
// ---- scanner-depth bugs would actually trip.

TEST(ProtocolFuzzTest, MutatedAndTruncatedFramesNeverCrashTheReader) {
  std::mt19937 rng(0x5e7fe);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 200; ++round) {
    SocketPair pair;
    std::string bytes;
    switch (round % 4) {
      case 0: {
        // A length prefix promising anything from 0 to 4 GiB, with a payload
        // shorter than promised (or absent).
        uint32_t len = static_cast<uint32_t>(rng());
        bytes.append(reinterpret_cast<const char*>(&len), 4);
        bytes.append(static_cast<size_t>(rng() % 64), 'p');
        break;
      }
      case 1: {
        // A valid frame, then its bytes mutated at random positions.
        std::string payload = R"({"v":1,"op":"plan","selector":"VVQQ"})";
        uint32_t len = static_cast<uint32_t>(payload.size());
        bytes.append(reinterpret_cast<const char*>(&len), 4);
        bytes += payload;
        for (int m = 0; m < 1 + round % 5; ++m) {
          bytes[rng() % bytes.size()] = static_cast<char>(byte(rng));
        }
        break;
      }
      case 2:
        // Pure noise, 0..127 bytes.
        for (size_t i = rng() % 128; i > 0; --i) {
          bytes.push_back(static_cast<char>(byte(rng)));
        }
        break;
      default: {
        // A truncated prefix: fewer than 4 header bytes.
        for (size_t i = rng() % 4; i > 0; --i) {
          bytes.push_back(static_cast<char>(byte(rng)));
        }
        break;
      }
    }
    ASSERT_EQ(::send(pair.fds[0], bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    // Drain the connection: every frame is accepted, rejected, or ends the
    // stream; none may hang (the writer is closed, so data is finite) and a
    // kError must carry a message.
    for (int frames = 0; frames < 8; ++frames) {
      std::string payload, error;
      const FrameResult result =
          ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &payload, &error);
      if (result == FrameResult::kEof) {
        break;
      }
      if (result == FrameResult::kError) {
        EXPECT_FALSE(error.empty());
        break;
      }
      ASSERT_EQ(result, FrameResult::kFrame);
    }
  }
}

TEST(ProtocolFuzzTest, AdversarialJsonYieldsStableErrorsNotCrashes) {
  runner::PartitionCache cache;
  PlanService service(&cache);

  // Hand-built adversarial payloads: deep nesting (the nested-value scanner
  // is iterative, so recursion depth must not be a resource), control bytes,
  // unterminated tokens, huge numbers, and embedded NULs.
  std::vector<std::string> payloads;
  {
    std::string deep_obj, deep_arr;
    for (int d = 0; d < 200000; ++d) {
      deep_obj += "{\"a\":";
      deep_arr += "[";
    }
    payloads.push_back(R"({"v":1,"op":"plan","selector":)" + deep_obj);
    payloads.push_back(R"({"v":1,"op":"plan","extra":)" + deep_arr + "}");
    payloads.push_back("{\"a\":\"\x01\x02\x03\"}");
    payloads.push_back(std::string("{\"a\":\"b") + '\0' + "c\"}");
    payloads.push_back(R"({"v":1e309,"op":"plan"})");
    payloads.push_back(R"({"v":1,"op":"plan","selector":")" + std::string(100000, 'V'));
    payloads.push_back("{\"v\":1,\"op\":\"plan\",\"selector\":\"VVQQ\",\"nm\":");
  }
  // Seeded mutations of a valid request: flip, insert, and delete bytes.
  std::mt19937 rng(0xfacade);
  std::uniform_int_distribution<int> byte(0, 255);
  const std::string valid = R"({"v":1,"op":"plan","selector":"VVQQ","nm":2})";
  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    for (int m = 0; m < 1 + round % 6; ++m) {
      const size_t at = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[at] = static_cast<char>(byte(rng));
          break;
        case 1:
          mutated.insert(at, 1, static_cast<char>(byte(rng)));
          break;
        default:
          mutated.erase(at, 1);
          break;
      }
      if (mutated.empty()) {
        mutated = "x";
      }
    }
    payloads.push_back(std::move(mutated));
  }

  for (const std::string& payload : payloads) {
    // The raw JSON reader: parses or reports an error, never throws.
    std::map<std::string, JsonValue> object;
    std::string error;
    if (!ParseJsonObject(payload, &object, &error)) {
      EXPECT_FALSE(error.empty());
    }
    // The request decoder: success, or a stable code from the bad_* family.
    PlanRequest request;
    ErrorCode code = ErrorCode::kNone;
    error.clear();
    if (!ParsePlanRequest(payload, &request, &code, &error)) {
      EXPECT_TRUE(code == ErrorCode::kBadJson || code == ErrorCode::kBadRequest)
          << ErrorCodeName(code) << " for payload prefix: " << payload.substr(0, 60);
      EXPECT_FALSE(error.empty());
    }
    // The full service: always a response row, never a shutdown, and every
    // failure carries one of the stable error codes.
    bool shutdown = false;
    const runner::ResultRow row = service.HandleJson(payload, &shutdown);
    EXPECT_FALSE(shutdown);
    if (row.Get("ok") != "true") {
      EXPECT_EQ(row.Get("ok"), "false");
      const std::string code_name = row.Get("error_code");
      EXPECT_TRUE(code_name == "bad_json" || code_name == "bad_request" ||
                  code_name == "bad_spec" || code_name == "bad_model" ||
                  code_name == "bad_selector")
          << code_name << " for payload prefix: " << payload.substr(0, 60);
    }
  }
}

}  // namespace
}  // namespace hetpipe::serve
