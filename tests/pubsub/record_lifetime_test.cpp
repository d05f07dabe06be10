// Lifetime of shared record values (ps::Bytes): a consumed value stays valid
// and unchanged after the log trims its record and after the server and
// client reuse their read paths for later frames, and consumer groups share
// one buffer that none of them can write. Run under ASan, a value freed too
// early is a heap-use-after-free here.
#include <gtest/gtest.h>

#include <type_traits>

#include "net/remote.hpp"
#include "net/server.hpp"
#include "pubsub/consumer.hpp"
#include "pubsub/producer.hpp"

namespace strata::ps {
namespace {

constexpr auto kPollTimeout = std::chrono::microseconds(2'000'000);

/// `n` bytes derived from `seed`, different for every seed.
std::string Value(std::size_t n, unsigned seed) {
  std::string value(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    value[i] = static_cast<char>((i * 31 + seed * 97 + i / 251) & 0xff);
  }
  return value;
}

/// Polls until `n` records arrived (or a poll fails).
std::vector<ConsumedRecord> PollRecords(Consumer* consumer, std::size_t n) {
  std::vector<ConsumedRecord> records;
  while (records.size() < n) {
    auto batch = consumer->Poll(kPollTimeout);
    if (!batch.ok() || batch->empty()) break;
    for (ConsumedRecord& record : *batch) records.push_back(std::move(record));
  }
  return records;
}

TEST(RecordLifetime, ValueSurvivesRetentionTrimmingItsRecord) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1, .retention_records = 2})
                  .ok());
  Producer producer(&broker);
  const std::string first = Value(300'000, 1);
  ASSERT_TRUE(producer.Send("t", "", first, 0).ok());
  auto consumer = std::move(Consumer::Create(&broker, "t")).value();
  const std::vector<ConsumedRecord> consumed = PollRecords(consumer.get(), 1);
  ASSERT_EQ(consumed.size(), 1u);

  for (unsigned i = 2; i < 8; ++i) {
    ASSERT_TRUE(producer.Send("t", "", Value(300'000, i), 0).ok());
  }
  auto log = broker.GetLog("t", 0);
  ASSERT_TRUE(log.ok());
  ASSERT_GT((*log)->StartOffset(), 0);  // the first record is gone
  EXPECT_TRUE(consumed[0].value == first);
}

TEST(RecordLifetime, RemoteValueSurvivesLaterFramesOnBothEnds) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1, .retention_records = 1})
                  .ok());
  net::BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  net::RemoteOptions remote;
  remote.port = server.port();
  net::RemoteProducer producer(remote);
  auto consumer = std::move(net::NewRemoteConsumer(remote, "t")).value();

  // A large value (read straight into its own buffer) and a small one (read
  // through the server's header buffer).
  for (const std::size_t size : {std::size_t{1'500'000}, std::size_t{40}}) {
    const std::string first = Value(size, 11);
    ASSERT_TRUE(producer.Send("t", "", first, 0).ok());
    const std::vector<ConsumedRecord> kept = PollRecords(consumer.get(), 1);
    ASSERT_EQ(kept.size(), 1u);
    // Later frames of the same sizes reuse every read path, and retention
    // drops the first record from the log.
    for (unsigned i = 12; i < 16; ++i) {
      const std::string later = Value(size, i);
      ASSERT_TRUE(producer.Send("t", "", later, 0).ok());
      const std::vector<ConsumedRecord> next = PollRecords(consumer.get(), 1);
      ASSERT_EQ(next.size(), 1u);
      EXPECT_TRUE(next[0].value == later);
    }
    EXPECT_TRUE(kept[0].value == first) << "size " << size;
  }
  consumer.reset();
  server.Stop();
}

TEST(RecordLifetime, ConsumerGroupsShareOneImmutableBuffer) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  Producer producer(&broker);
  const std::string produced = Value(100'000, 3);
  ASSERT_TRUE(producer.Send("t", "", produced, 0).ok());

  ConsumerOptions a_options;
  a_options.group = "a";
  ConsumerOptions b_options;
  b_options.group = "b";
  auto a = std::move(Consumer::Create(&broker, "t", a_options)).value();
  auto b = std::move(Consumer::Create(&broker, "t", b_options)).value();
  const std::vector<ConsumedRecord> from_a = PollRecords(a.get(), 1);
  const std::vector<ConsumedRecord> from_b = PollRecords(b.get(), 1);
  ASSERT_EQ(from_a.size(), 1u);
  ASSERT_EQ(from_b.size(), 1u);

  // One buffer: the log's, handed to both groups by reference.
  std::vector<Record> stored;
  std::int64_t next = 0;
  auto log = broker.GetLog("t", 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->ReadFrom(0, 1, &stored, &next).ok());
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(from_a[0].value.data(), from_b[0].value.data());
  EXPECT_EQ(from_a[0].value.data(), stored[0].value.data());
  EXPECT_TRUE(from_a[0].value == produced);

  // And nobody can write through it.
  static_assert(
      std::is_same_v<decltype(from_a[0].value.data()), const char*>);
  static_assert(!std::is_assignable_v<decltype(*from_a[0].value.data()),
                                      char>);
}

}  // namespace
}  // namespace strata::ps
