#include "pubsub/client.hpp"

#include "pubsub/producer.hpp"

namespace strata::ps {

Result<std::unique_ptr<ProducerClient>> EmbeddedBrokerClient::NewProducer() {
  return std::unique_ptr<ProducerClient>(std::make_unique<Producer>(broker_));
}

}  // namespace strata::ps
