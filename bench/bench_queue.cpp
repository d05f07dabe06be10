// Data-plane microbenchmark: cost of moving tuples across one stream hop
// over the stream transport (BlockingQueue), per tuple (Push/Pop) and
// batched (PushAll/PopAll), for one producer/one consumer and for the
// 4-producer/4-consumer case the router/union plumbing exercises.
//
// Prints a table and appends machine-readable JSON lines (one per scenario)
// to $STRATA_BENCH_JSON (default BENCH_SPE.json) for CI artifacts.
//
// Env knobs: STRATA_BENCH_TUPLES (default 1000000), STRATA_BENCH_BATCH
// (default 64), STRATA_BENCH_CAPACITY (default 1024).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/queue.hpp"
#include "spe/batch.hpp"
#include "spe/tuple.hpp"

using namespace strata;         // NOLINT
using namespace strata::bench;  // NOLINT

namespace {

int EnvCount(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

spe::Tuple MakeTuple(std::size_t i) {
  spe::Tuple t;
  t.event_time = static_cast<Timestamp>(i);
  t.layer = static_cast<std::int64_t>(i);
  return t;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Scenario {
  std::string name;
  int producers = 1;
  int consumers = 1;
  std::size_t batch = 1;  // 1 = per-tuple API
  double tuples_per_sec = 0;
};

// ---- M producers / N consumers over the mutex queue ----

double RunMpmc(std::size_t tuples, std::size_t batch, std::size_t capacity,
               int producers, int consumers) {
  BlockingQueue<spe::Tuple> queue(capacity);
  std::atomic<std::size_t> consumed{0};
  const std::size_t per_producer = tuples / static_cast<std::size_t>(producers);
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  std::atomic<int> live_producers{producers};
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t base = static_cast<std::size_t>(p) * per_producer;
      if (batch <= 1) {
        for (std::size_t i = 0; i < per_producer; ++i) {
          if (!queue.Push(MakeTuple(base + i)).ok()) break;
        }
      } else {
        spe::TupleBatch chunk;
        chunk.reserve(batch);
        for (std::size_t i = 0; i < per_producer; ++i) {
          chunk.push_back(MakeTuple(base + i));
          if (chunk.size() == batch) {
            if (!queue.PushAll(&chunk).ok()) break;
            chunk.clear();
          }
        }
        if (!chunk.empty()) (void)queue.PushAll(&chunk);
      }
      if (live_producers.fetch_sub(1) == 1) queue.Close();
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      std::size_t local = 0;
      if (batch <= 1) {
        while (queue.Pop().has_value()) ++local;
      } else {
        spe::TupleBatch drained;
        while (queue.PopAll(&drained)) {
          local += drained.size();
          drained.clear();
        }
      }
      consumed.fetch_add(local);
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = SecondsSince(start);
  const std::size_t expected =
      per_producer * static_cast<std::size_t>(producers);
  if (consumed.load() != expected) {
    std::fprintf(stderr, "mpmc scenario lost tuples: %zu != %zu\n",
                 consumed.load(), expected);
    std::exit(1);
  }
  return seconds;
}

}  // namespace

int main() {
  const std::size_t tuples =
      static_cast<std::size_t>(EnvCount("STRATA_BENCH_TUPLES", 1000000));
  const std::size_t batch =
      static_cast<std::size_t>(EnvCount("STRATA_BENCH_BATCH", 64));
  const std::size_t capacity =
      static_cast<std::size_t>(EnvCount("STRATA_BENCH_CAPACITY", 1024));

  std::printf(
      "== stream-hop microbenchmark: %zu tuples, batch %zu, capacity %zu ==\n",
      tuples, batch, capacity);
  std::printf("%-24s %10s %10s %14s %10s\n", "scenario", "producers",
              "consumers", "tuples/s", "vs base");

  std::vector<Scenario> scenarios = {
      {"mutex_1p1c_per_tuple", 1, 1, 1},
      {"mutex_1p1c_batched", 1, 1, batch},
      {"mutex_4p4c_per_tuple", 4, 4, 1},
      {"mutex_4p4c_batched", 4, 4, batch},
  };

  JsonLinesWriter out("STRATA_BENCH_JSON", "BENCH_SPE.json");
  double baseline = 0;
  for (Scenario& s : scenarios) {
    const double seconds =
        RunMpmc(tuples, s.batch, capacity, s.producers, s.consumers);
    // Producers split tuples evenly; recompute the actual total moved.
    const std::size_t moved = (tuples / static_cast<std::size_t>(s.producers)) *
                              static_cast<std::size_t>(s.producers);
    s.tuples_per_sec = static_cast<double>(moved) / seconds;
    if (baseline == 0) baseline = s.tuples_per_sec;
    std::printf("%-24s %10d %10d %14.0f %9.2fx\n", s.name.c_str(),
                s.producers, s.consumers, s.tuples_per_sec,
                s.tuples_per_sec / baseline);
    out.Line(JsonObject()
                 .Str("bench", "bench_queue")
                 .Str("scenario", s.name)
                 .Int("tuples", static_cast<long long>(moved))
                 .Int("batch", static_cast<long long>(s.batch))
                 .Int("capacity", static_cast<long long>(capacity))
                 .Int("producers", s.producers)
                 .Int("consumers", s.consumers)
                 .Num("tuples_per_sec", s.tuples_per_sec));
  }
  if (out.enabled()) {
    std::printf("\nJSON lines appended to %s\n", out.path().c_str());
  }
  return 0;
}
