// Thin producer facade over the broker (synchronous acks: every Send is
// durable in the partition log before returning, matching acks=all).
#pragma once

#include <string>

#include "pubsub/broker.hpp"
#include "pubsub/client.hpp"

namespace strata::ps {

class Producer final : public ProducerClient {
 public:
  explicit Producer(Broker* broker) : broker_(broker) {}

  using ProducerClient::Send;

  /// Returns (partition, offset) of the appended record.
  [[nodiscard]] Result<std::pair<int, std::int64_t>> Send(
      const std::string& topic, Record record) override {
    return broker_->Produce(topic, std::move(record));
  }

 private:
  Broker* broker_;
};

}  // namespace strata::ps
