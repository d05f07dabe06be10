#include "strata/transport.hpp"

#include "common/codec.hpp"

namespace strata::core {

Status EncodeTaggedTuple(std::uint64_t seq, const spe::Tuple& tuple,
                         std::string* out) {
  codec::PutVarint64(out, seq);
  return EncodeTuple(tuple, out);
}

Result<spe::Tuple> DecodeTaggedTuple(std::string_view data,
                                     std::uint64_t* seq) {
  if (!codec::GetVarint64(&data, seq)) {
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
