#include "net/frame.hpp"

#include <vector>

#include "common/codec.hpp"
#include "common/crc32.hpp"

namespace strata::net {

namespace {

void StoreFixed32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

void StoreFixed64(char* out, std::uint64_t v) {
  StoreFixed32(out, static_cast<std::uint32_t>(v));
  StoreFixed32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace

std::size_t EncodeFrameHeader(std::span<const std::string_view> payload,
                              const TraceContext& trace,
                              std::uint64_t correlation, char* out) {
  // An unsampled context travels as zeros.
  const TraceContext sent = trace.sampled() ? trace : TraceContext{};
  StoreFixed64(out + 8, sent.trace_id);
  StoreFixed64(out + 16, sent.parent_span);
  StoreFixed64(out + 24, correlation);
  std::uint32_t crc =
      Crc32c(std::string_view(out + 8, kFrameHeaderBytes - 8));
  std::size_t length = 0;
  for (const std::string_view piece : payload) {
    crc = Crc32c(piece, crc);
    length += piece.size();
  }
  StoreFixed32(out, static_cast<std::uint32_t>(length));
  StoreFixed32(out + 4, MaskCrc(crc));
  return length;
}

void EncodeFrame(std::string_view payload, const TraceContext& trace,
                 std::uint64_t correlation, std::string* out) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(std::span(&payload, 1), trace, correlation, header);
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

Status WriteFrame(Socket* socket, std::span<const std::string_view> payload,
                  Deadline deadline, const TraceContext& trace,
                  std::uint64_t correlation) {
  char header[kFrameHeaderBytes];
  if (EncodeFrameHeader(payload, trace, correlation, header) >
      kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  std::vector<std::string_view> pieces;
  pieces.reserve(payload.size() + 1);
  pieces.emplace_back(header, kFrameHeaderBytes);
  pieces.insert(pieces.end(), payload.begin(), payload.end());
  return socket->WriteAll(pieces, deadline);
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
