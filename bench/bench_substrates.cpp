// Ablation A2: substrate microbenchmarks (google-benchmark).
//
// Establishes that each substrate is fast enough for the paper's workload:
// the KV store (thresholds, at-rest data), the CRC-32C over every stored or
// sent byte, the pub/sub broker (connectors moving 1-4 MB OT frames), the
// SPE operator path (per-tuple overhead that bounds cell throughput), the
// tuple transport codec, and OT generation.
// `--network` runs the networked broker benchmarks (BM_Net*), which put a
// BrokerServer + TCP loopback between producer and consumer, and the
// embedded BM_PubSubRoundTrip rows they compare against.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>

#include "am/machine.hpp"
#include "bench_json.hpp"
#include "common/crc32.hpp"
#include "net/frame.hpp"
#include "common/fs.hpp"
#include "kvstore/db.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "pubsub/consumer.hpp"
#include "pubsub/producer.hpp"
#include "repl/manager.hpp"
#include "spe/query.hpp"
#include "spe/replay_source.hpp"
#include "strata/transport.hpp"

using namespace strata;  // NOLINT

// ---------------------------------------------------------------- kvstore

static void BM_KvPut(benchmark::State& state) {
  strata::fs::ScopedTempDir dir("bench-kv");
  auto db = std::move(kv::DB::Open(dir.path())).value();
  const std::string value(static_cast<std::size_t>(state.range(0)), 'v');
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Put("key" + std::to_string(i++ % 10000), value));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KvPut)->Arg(64)->Arg(1024);

static void BM_KvGet(benchmark::State& state) {
  strata::fs::ScopedTempDir dir("bench-kv");
  auto db = std::move(kv::DB::Open(dir.path())).value();
  for (int i = 0; i < 10000; ++i) {
    db->Put("key" + std::to_string(i), "value" + std::to_string(i)).OrDie();
  }
  db->Flush().OrDie();
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get("key" + std::to_string(i++ % 10000)));
  }
}
BENCHMARK(BM_KvGet);

static void BM_KvScan(benchmark::State& state) {
  strata::fs::ScopedTempDir dir("bench-kv");
  auto db = std::move(kv::DB::Open(dir.path())).value();
  for (int i = 0; i < 10000; ++i) {
    db->Put("key" + std::to_string(i), "v").OrDie();
  }
  db->Flush().OrDie();
  for (auto _ : state) {
    auto it = db->NewIterator();
    std::size_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_KvScan);

// ----------------------------------------------------------------- pubsub

namespace {

/// Minor page faults of the whole process so far (producer, consumer and
/// server threads alike): every fresh multi-megabyte buffer pays one per
/// 4 KiB page on first touch, so this counts buffers as well as bytes.
std::int64_t MinorFaults() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Reports the faults since `start` as "minflt", per iteration.
void ReportMinorFaults(benchmark::State& state, std::int64_t start) {
  state.counters["minflt"] =
      benchmark::Counter(static_cast<double>(MinorFaults() - start),
                         benchmark::Counter::kAvgIterations);
}

}  // namespace

static void BM_PubSubRoundTrip(benchmark::State& state) {
  ps::Broker broker;
  broker.CreateTopic("bench", {.partitions = 1}).OrDie();
  ps::Producer producer(&broker);
  auto consumer = std::move(ps::Consumer::Create(&broker, "bench")).value();
  const std::string value(static_cast<std::size_t>(state.range(0)), 'x');
  const std::int64_t faults = MinorFaults();
  for (auto _ : state) {
    producer.Send("bench", "", value, 0).status().OrDie();
    auto batch = consumer->Poll(std::chrono::microseconds(1'000'000));
    benchmark::DoNotOptimize(batch);
  }
  ReportMinorFaults(state, faults);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PubSubRoundTrip)->Arg(1024)->Arg(1 << 20)->Arg(4 << 20);

// ------------------------------------------------------- pubsub over TCP

namespace {

/// Embedded broker behind a BrokerServer on an ephemeral loopback port.
struct NetBench {
  NetBench() : server(&broker) {
    broker.CreateTopic("bench", {.partitions = 1}).OrDie();
    server.Start().OrDie();
  }
  ~NetBench() { server.Stop(); }

  [[nodiscard]] net::RemoteOptions Remote() const {
    net::RemoteOptions remote;
    remote.port = server.port();
    return remote;
  }

  ps::Broker broker;
  net::BrokerServer server;
};

}  // namespace

static void BM_NetProduce(benchmark::State& state) {
  NetBench net;
  net::RemoteProducer producer(net.Remote());
  const std::string value(static_cast<std::size_t>(state.range(0)), 'x');
  const std::int64_t faults = MinorFaults();
  for (auto _ : state) {
    producer.Send("bench", "", value, 0).status().OrDie();
  }
  ReportMinorFaults(state, faults);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetProduce)->Arg(1024)->Arg(1 << 20)->Arg(4 << 20);

static void BM_NetPubSubRoundTrip(benchmark::State& state) {
  NetBench net;
  net::RemoteProducer producer(net.Remote());
  auto consumer =
      std::move(net::NewRemoteConsumer(net.Remote(), "bench")).value();
  const std::string value(static_cast<std::size_t>(state.range(0)), 'x');
  const std::int64_t faults = MinorFaults();
  for (auto _ : state) {
    producer.Send("bench", "", value, 0).status().OrDie();
    auto batch = consumer->Poll(std::chrono::microseconds(1'000'000));
    batch.status().OrDie();
    benchmark::DoNotOptimize(batch);
  }
  ReportMinorFaults(state, faults);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetPubSubRoundTrip)->Arg(1024)->Arg(1 << 20)->Arg(4 << 20);

// Many-connections scenario for the epoll reactor: `clients` idle
// long-polling connections sit parked on a quiet topic (costing the server
// fds and parked-fetch state, not threads) while producer threads and one
// remote consumer push records through a busy topic. Args are
// (clients, broker shards); the shards=1 vs shards=8 rows in BENCH_SPE.json
// are the before/after for the sharded data plane.
static void BM_NetManyClients(benchmark::State& state) {
  const int kClients = static_cast<int>(state.range(0));
  const int kShards = static_cast<int>(state.range(1));
  constexpr int kProducerThreads = 8;
  constexpr int kRecordsPerIteration = 4000;

  ps::BrokerOptions broker_options;
  broker_options.shards = static_cast<std::size_t>(kShards);
  ps::Broker broker(broker_options);
  broker.CreateTopic("bench", {.partitions = 16}).OrDie();
  broker.CreateTopic("idle", {.partitions = 1}).OrDie();

  net::BrokerServerOptions server_options;
  server_options.event_loop_workers = 4;
  server_options.max_fetch_wait = std::chrono::seconds(120);
  net::BrokerServer server(&broker, server_options);
  server.Start().OrDie();

  // Park the idle fleet: one Hello, then one long-poll Fetch per connection
  // on the never-produced-to topic. Nothing ever answers them; they exist to
  // make the server hold ~kClients parked fetches while serving the load.
  net::FetchRequest idle_fetch;
  idle_fetch.entries.push_back({.tp = {"idle", 0}, .offset = 0});
  idle_fetch.max_wait_us = 120'000'000;
  std::string body;
  net::EncodeFetchRequest(idle_fetch, &body);
  std::string park_payload;
  net::EncodeRequest(net::ApiKey::kFetch, body, &park_payload);
  std::vector<net::Socket> idle;
  idle.reserve(static_cast<std::size_t>(kClients));
  for (int i = 0; i < kClients; ++i) {
    auto socket = net::Socket::Connect("127.0.0.1", server.port(),
                                       net::After(std::chrono::seconds(10)));
    socket.status().OrDie();
    net::Handshake(&*socket, net::After(std::chrono::seconds(10))).OrDie();
    net::WriteFrame(&*socket, park_payload,
                    net::After(std::chrono::seconds(10)))
        .OrDie();
    idle.push_back(std::move(*socket));
  }

  net::RemoteOptions remote;
  remote.port = server.port();
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> produced{0};
  std::vector<std::thread> producers;
  const std::string value(1024, 'x');
  for (int t = 0; t < kProducerThreads; ++t) {
    producers.emplace_back([&] {
      net::RemoteProducer producer(remote);
      while (!stop.load(std::memory_order_relaxed)) {
        if (producer.Send("bench", "", value, 0).ok()) {
          produced.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  auto consumer =
      std::move(net::NewRemoteConsumer(remote, "bench")).value();
  std::int64_t fetched = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::int64_t in_iteration = 0;
    while (in_iteration < kRecordsPerIteration) {
      auto batch = consumer->Poll(std::chrono::microseconds(1'000'000));
      if (!batch.ok()) continue;  // Timeout between produce bursts
      in_iteration += static_cast<std::int64_t>(batch->size());
    }
    fetched += in_iteration;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop.store(true);
  for (auto& t : producers) t.join();

  const double produce_per_sec =
      static_cast<double>(produced.load()) / seconds;
  const double fetch_per_sec = static_cast<double>(fetched) / seconds;
  state.counters["clients"] = kClients;
  state.counters["shards"] = kShards;
  state.counters["produce_per_sec"] = produce_per_sec;
  state.counters["fetch_per_sec"] = fetch_per_sec;
  state.SetItemsProcessed(fetched);

  strata::bench::JsonLinesWriter out("STRATA_BENCH_JSON", "BENCH_SPE.json");
  out.Line(strata::bench::JsonObject()
               .Str("bench", "bench_substrates")
               .Str("scenario", "net_many_clients")
               .Int("clients", kClients)
               .Int("shards", kShards)
               .Int("event_loop_workers", 4)
               .Int("producer_threads", kProducerThreads)
               .Num("produce_per_sec", produce_per_sec)
               .Num("fetch_per_sec", fetch_per_sec)
               .Num("seconds", seconds));
}
BENCHMARK(BM_NetManyClients)
    ->Args({1024, 1})
    ->Args({1024, 8})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- replicated acks modes

namespace {

/// Three-broker replicated cluster on loopback (the examples/net_replicated
/// topology): broker 1 leads "bench", brokers 2 and 3 follow.
struct ReplBench {
  struct Node {
    ps::Broker broker;
    std::unique_ptr<repl::ReplicationManager> manager;
    std::unique_ptr<net::BrokerServer> server;
  };

  ReplBench() {
    {
      std::vector<net::ListenSocket> probes;
      for (int i = 0; i < 3; ++i) {
        auto probe = net::ListenSocket::Listen("127.0.0.1", 0);
        probe.status().OrDie();
        endpoints.push_back(repl::BrokerEndpoint{
            static_cast<std::uint32_t>(i + 1), "127.0.0.1", probe->port()});
        probes.push_back(std::move(*probe));
      }
    }
    for (int i = 0; i < 3; ++i) {
      auto node = std::make_unique<Node>();
      repl::ReplicaOptions repl;
      repl.self = endpoints[static_cast<std::size_t>(i)];
      repl.brokers = endpoints;
      repl.fetch_interval = std::chrono::microseconds(200);
      node->manager = std::make_unique<repl::ReplicationManager>(
          &node->broker, repl);
      net::BrokerServerOptions server_options;
      server_options.host = "127.0.0.1";
      server_options.port = endpoints[static_cast<std::size_t>(i)].port;
      server_options.repl = node->manager.get();
      node->server =
          std::make_unique<net::BrokerServer>(&node->broker, server_options);
      node->server->Start().OrDie();
      node->manager->Start().OrDie();
      nodes.push_back(std::move(node));
    }
    for (auto& node : nodes) {
      node->manager->AddTopic("bench", {.partitions = 1}, /*leader=*/1)
          .OrDie();
    }
  }

  ~ReplBench() {
    for (auto& node : nodes) {
      node->manager->Stop();
      node->server->Stop();
      node->broker.Close();
    }
  }

  [[nodiscard]] net::RemoteOptions Remote(net::ProduceAcks acks) const {
    net::RemoteOptions remote;
    for (const repl::BrokerEndpoint& endpoint : endpoints) {
      remote.bootstrap.emplace_back(endpoint.host, endpoint.port);
    }
    remote.acks = acks;
    return remote;
  }

  std::vector<repl::BrokerEndpoint> endpoints;
  std::vector<std::unique_ptr<Node>> nodes;
};

}  // namespace

// acks=leader vs acks=quorum on the same three-broker cluster: the cost of
// holding each produce until a majority of brokers has appended the record.
// Arg 0 = leader acks, Arg 1 = quorum acks.
static void BM_NetReplicatedAcks(benchmark::State& state) {
  const auto acks = state.range(0) == 0 ? net::ProduceAcks::kLeader
                                        : net::ProduceAcks::kQuorum;
  ReplBench cluster;
  net::RemoteProducer producer(cluster.Remote(acks));
  const std::string value(1024, 'x');
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    producer.Send("bench", "", value, 0).status().OrDie();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double per_sec = static_cast<double>(state.iterations()) / seconds;
  state.counters["produce_per_sec"] = per_sec;
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) == 0 ? "acks=leader" : "acks=quorum");

  strata::bench::JsonLinesWriter out("STRATA_BENCH_JSON", "BENCH_SPE.json");
  out.Line(strata::bench::JsonObject()
               .Str("bench", "bench_substrates")
               .Str("scenario", "net_replicated_acks")
               .Str("acks", state.range(0) == 0 ? "leader" : "quorum")
               .Int("brokers", 3)
               .Int("record_bytes", 1024)
               .Num("produce_per_sec", per_sec));
}
BENCHMARK(BM_NetReplicatedAcks)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(2000)  // fixed: one JSON row per acks mode, no re-estimation
    ->Unit(benchmark::kMicrosecond);

// -------------------------------------------------------------------- spe

static void BM_SpePipelineTuples(benchmark::State& state) {
  // Per-tuple cost through source -> map -> filter -> sink.
  const auto tuples = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    spe::Query query;
    auto counter = std::make_shared<std::int64_t>(0);
    auto src = query.AddSource(
        "src", [counter, tuples]() -> std::optional<spe::Tuple> {
          if (*counter >= tuples) return std::nullopt;
          spe::Tuple t;
          t.event_time = (*counter)++;
          t.payload.Set("v", *counter);
          return t;
        });
    auto mapped = query.AddFlatMap("map", src, [](const spe::Tuple& t) {
      return std::vector<spe::Tuple>{t};
    });
    auto filtered =
        query.AddFilter("filter", mapped, [](const spe::Tuple&) { return true; });
    query.AddSink("sink", filtered, [](const spe::Tuple&) {});
    query.Run();
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
BENCHMARK(BM_SpePipelineTuples)->Arg(100000)->Unit(benchmark::kMillisecond);

static void BM_SpeAggregateWindows(benchmark::State& state) {
  const std::int64_t tuples = 100000;
  for (auto _ : state) {
    spe::Query query;
    auto counter = std::make_shared<std::int64_t>(0);
    auto src = query.AddSource(
        "src", [counter]() -> std::optional<spe::Tuple> {
          if (*counter >= tuples) return std::nullopt;
          spe::Tuple t;
          t.event_time = (*counter)++;
          return t;
        });
    spe::AggregateSpec spec;
    spec.window = {1000, 100};
    spec.init = [] { return std::any(std::int64_t{0}); };
    spec.add = [](std::any& a, const spe::Tuple&) {
      ++std::any_cast<std::int64_t&>(a);
    };
    spec.result = [](std::any& a, Timestamp, Timestamp) {
      spe::Tuple t;
      t.payload.Set("n", std::any_cast<std::int64_t>(a));
      return std::vector<spe::Tuple>{t};
    };
    auto agg = query.AddAggregate("agg", src, std::move(spec));
    query.AddSink("sink", agg, [](const spe::Tuple&) {});
    query.Run();
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
BENCHMARK(BM_SpeAggregateWindows)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------- checksum

// Random bytes, so the input is run-time data the compiler cannot fold.
static std::string RandomBytes(std::size_t n) {
  std::mt19937_64 gen(1);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(gen() & 0xff);
  return out;
}

static void BM_Crc32c(benchmark::State& state) {
  const std::string data = RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(Crc32c(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crc32_internal::HardwareActive() ? "hardware" : "table");
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(1 << 20)->Arg(4 << 20);

// The table loop Crc32c falls back to: the baseline for the row above.
static void BM_Crc32cTable(benchmark::State& state) {
  const std::string data = RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_internal::Crc32cTable(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cTable)->Arg(4 << 10)->Arg(1 << 20)->Arg(4 << 20);

// -------------------------------------------------------------- transport

static void BM_TupleCodecScalar(benchmark::State& state) {
  spe::Tuple t;
  t.job = 1;
  t.layer = 2;
  t.payload.Set("cx_mm", 12.5);
  t.payload.Set("cy_mm", 14.5);
  t.payload.Set("mean", 140.0);
  t.payload.Set("label", std::int64_t{2});
  for (auto _ : state) {
    std::string encoded;
    core::EncodeTuple(t, &encoded).OrDie();
    auto decoded = core::DecodeTuple(encoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_TupleCodecScalar);

static void BM_TupleCodecImage(benchmark::State& state) {
  spe::Tuple t;
  t.payload.Set(
      "ot_image",
      am::MakeImageValue(am::GrayImage(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(0)))));
  for (auto _ : state) {
    std::string encoded;
    core::EncodeTuple(t, &encoded).OrDie();
    auto decoded = core::DecodeTuple(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_TupleCodecImage)->Arg(1000)->Arg(2000);

// --------------------------------------------------------------------- am

static void BM_OtGenerateLayer(benchmark::State& state) {
  am::BuildJobSpec job = am::MakePaperJob(1, static_cast<int>(state.range(0)));
  am::DefectModelParams defect_params;
  defect_params.birth_rate = 0.03;
  am::DefectSeeder seeder(job, defect_params);
  am::OtImageGenerator generator(job, &seeder);
  int layer = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.GenerateLayer(layer++ % 100));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_OtGenerateLayer)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

static void BM_CellMeans(benchmark::State& state) {
  const am::BuildJobSpec job = am::MakePaperJob(1, 2000);
  am::OtImageGenerator generator(job, nullptr);
  const am::GrayImage image = generator.GenerateLayer(0);
  const int cell = static_cast<int>(state.range(0));
  for (auto _ : state) {
    double sum = 0;
    for (const auto& s : job.specimens) {
      const int x0 = job.plate.MmToPx(s.x_mm);
      const int y0 = job.plate.MmToPx(s.y_mm);
      const int x1 = job.plate.MmToPx(s.x_mm + s.width_mm);
      const int y1 = job.plate.MmToPx(s.y_mm + s.length_mm);
      for (int y = y0; y + cell <= y1; y += cell) {
        for (int x = x0; x + cell <= x1; x += cell) {
          sum += image.RegionMean(x, y, cell, cell);
        }
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CellMeans)->Arg(20)->Arg(10)->Arg(2)->Unit(benchmark::kMillisecond);

// BENCHMARK_MAIN plus the `--network` switch: run only the BM_Net* rows
// (the TCP-loopback broker path) and their embedded baseline,
// BM_PubSubRoundTrip, for a quick embedded-vs-networked compare.
int main(int argc, char** argv) {
  // The many-clients scenario holds >2k sockets in one process (both ends
  // of every connection); lift the soft fd limit to the hard one up front.
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
  }

  std::vector<char*> args(argv, argv + argc);
  std::string filter_arg = "--benchmark_filter=BM_Net|BM_PubSubRoundTrip";
  for (char*& arg : args) {
    if (std::string_view(arg) == "--network") arg = filter_arg.data();
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
