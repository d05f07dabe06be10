#include "strata/transport.hpp"

#include "common/codec.hpp"

namespace strata::core {

Status EncodeTaggedTuple(const TransportTag& tag, const spe::Tuple& tuple,
                         std::string* out) {
  codec::PutVarint64(out, tag.epoch);
  codec::PutVarint64(out, tag.seq);
  return EncodeTuple(tuple, out);
}

Result<spe::Tuple> DecodeTaggedTuple(std::string_view data,
                                     TransportTag* tag) {
  if (!codec::GetVarint64(&data, &tag->epoch) ||
      !codec::GetVarint64(&data, &tag->seq)) {
    return Status::Corruption("connector record: truncated tag");
  }
  return DecodeTuple(data);
}

std::string RawDataKey(const spe::Tuple& tuple) {
  return std::to_string(tuple.job) + "|" + std::to_string(tuple.layer);
}

std::string EventKey(const spe::Tuple& tuple) {
  return std::to_string(tuple.job) + "|" + std::to_string(tuple.specimen);
}

}  // namespace strata::core
