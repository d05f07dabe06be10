#include "net/frame.hpp"

#include "common/codec.hpp"
#include "common/crc32.hpp"

namespace strata::net {

void EncodeFrame(std::string_view payload, const TraceContext& trace,
                 std::uint64_t correlation, std::string* out) {
  // An unsampled context travels as zeros.
  const TraceContext sent = trace.sampled() ? trace : TraceContext{};
  std::string fields;
  codec::PutFixed64(&fields, sent.trace_id);
  codec::PutFixed64(&fields, sent.parent_span);
  codec::PutFixed64(&fields, correlation);
  codec::PutFixed32(out, static_cast<std::uint32_t>(payload.size()));
  codec::PutFixed32(out, MaskCrc(Crc32c(payload, Crc32c(fields))));
  out->append(fields);
  out->append(payload.data(), payload.size());
}

Status WriteFrame(Socket* socket, std::string_view payload, Deadline deadline,
                  const TraceContext& trace, std::uint64_t correlation) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  EncodeFrame(payload, trace, correlation, &frame);
  return socket->WriteAll(frame, deadline);
}

Status ParseFrameHeader(std::string_view header, FrameHeader* out) {
  out->header_crc = Crc32c(header.substr(8, kFrameHeaderBytes - 8));
  codec::GetFixed32(&header, &out->payload_len);
  codec::GetFixed32(&header, &out->masked_crc);
  codec::GetFixed64(&header, &out->trace.trace_id);
  codec::GetFixed64(&header, &out->trace.parent_span);
  codec::GetFixed64(&header, &out->correlation);
  if (out->payload_len > kMaxFrameBytes) {
    return Status::Corruption("frame length " +
                              std::to_string(out->payload_len) +
                              " exceeds limit (desynchronized stream?)");
  }
  return Status::Ok();
}

Status CheckFramePayload(const FrameHeader& header, std::string_view payload) {
  if (Crc32c(payload, header.header_crc) != UnmaskCrc(header.masked_crc)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::Ok();
}

Status ReadFrame(Socket* socket, std::string* payload, Deadline deadline,
                 TraceContext* trace, std::uint64_t* correlation) {
  char header_bytes[kFrameHeaderBytes];
  STRATA_RETURN_IF_ERROR(
      socket->ReadFully(header_bytes, sizeof(header_bytes), deadline));
  FrameHeader header;
  STRATA_RETURN_IF_ERROR(ParseFrameHeader(
      std::string_view(header_bytes, sizeof(header_bytes)), &header));
  payload->resize(header.payload_len);
  STRATA_RETURN_IF_ERROR(
      socket->ReadFully(payload->data(), payload->size(), deadline));
  STRATA_RETURN_IF_ERROR(CheckFramePayload(header, *payload));
  if (trace != nullptr) *trace = header.trace;
  if (correlation != nullptr) *correlation = header.correlation;
  return Status::Ok();
}

}  // namespace strata::net
