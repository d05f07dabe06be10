// Transport-neutral client interfaces over the pub/sub layer.
//
// STRATA's connectors program against these instead of a concrete Broker so
// the same pipeline code runs against the in-process broker (embedded
// deployment) or a BrokerServer reached over TCP (networked deployment, see
// strata::net). Producer implements ProducerClient directly; every
// transport hands out the one Consumer, over its own ConsumerTransport.
// EmbeddedBrokerClient is the in-process factory, net::RemoteBroker the
// remote one.
#pragma once

#include <memory>
#include <string>

#include "pubsub/broker.hpp"
#include "pubsub/consumer.hpp"

namespace strata::ps {

/// Synchronous-ack producer handle (mirrors Producer::Send).
class ProducerClient {
 public:
  virtual ~ProducerClient() = default;

  /// Returns (partition, offset) of the appended record.
  [[nodiscard]] virtual Result<std::pair<int, std::int64_t>> Send(
      const std::string& topic, Record record) = 0;

  [[nodiscard]] Result<std::pair<int, std::int64_t>> Send(
      const std::string& topic, std::string key, std::string value,
      Timestamp timestamp) {
    Record record;
    record.key = std::move(key);
    record.value = std::move(value);
    record.timestamp = timestamp;
    return Send(topic, std::move(record));
  }
};

/// Factory + admin surface shared by embedded and remote transports.
class BrokerClient {
 public:
  virtual ~BrokerClient() = default;

  [[nodiscard]] virtual Status CreateTopic(const std::string& name,
                                           const TopicConfig& config) = 0;
  [[nodiscard]] virtual Result<std::unique_ptr<ProducerClient>> NewProducer() = 0;
  [[nodiscard]] virtual Result<std::unique_ptr<Consumer>> NewConsumer(
      const std::string& topic, ConsumerOptions options) = 0;
};

/// In-process transport: thin forwarding onto a Broker the caller owns.
class EmbeddedBrokerClient final : public BrokerClient {
 public:
  explicit EmbeddedBrokerClient(Broker* broker) : broker_(broker) {}

  [[nodiscard]] Status CreateTopic(const std::string& name,
                                   const TopicConfig& config) override {
    return broker_->CreateTopic(name, config);
  }
  [[nodiscard]] Result<std::unique_ptr<ProducerClient>> NewProducer() override;
  [[nodiscard]] Result<std::unique_ptr<Consumer>> NewConsumer(
      const std::string& topic, ConsumerOptions options) override {
    return Consumer::Create(broker_, topic, std::move(options));
  }

 private:
  Broker* broker_;
};

}  // namespace strata::ps
