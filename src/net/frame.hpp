// Wire framing for the broker protocol: every message travels as
//
//   length(4, LE) | masked_crc32c(4, LE) | trace(16) | correlation(8) | payload
//
// The 32-byte header is fixed. `length` is the payload size. `trace` is the
// sender's trace context (trace id + parent span id, LE), all zeros when
// unsampled. `correlation` (LE) is the request id the server echoes on the
// response, so a client may pipeline many requests on one connection and
// match completions that arrive out of order (a parked long-poll Fetch does
// not block a Produce sent behind it). The CRC (Castagnoli, masked as in the
// storage formats) covers trace, correlation and payload, so a flipped bit
// anywhere surfaces as Status::Corruption instead of a garbage decode.
// Lengths above kMaxFrameBytes are rejected before any allocation, which
// also cheaply catches desynchronized streams.
//
// A payload may be handed over as a list of pieces (the envelope, the
// encoded fields, each record value as a view of its own buffer): the CRC
// chains across them and they go out in one gathered write, so a frame is
// never assembled in one buffer on its way out.
#pragma once

#include <span>
#include <string>

#include "common/trace_context.hpp"
#include "net/socket.hpp"

namespace strata::net {

/// Upper bound on one frame's payload. Large enough for a 4k x 4k OT frame
/// tuple with headroom; small enough that a corrupt length cannot OOM us.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Size of the fixed frame header: length, CRC, trace, correlation.
inline constexpr std::size_t kFrameHeaderBytes = 32;

/// Store the kFrameHeaderBytes header of a frame whose payload is
/// `payload`'s pieces in order into `out`; returns the payload length.
std::size_t EncodeFrameHeader(std::span<const std::string_view> payload,
                              const TraceContext& trace,
                              std::uint64_t correlation, char* out);

/// Serialize one frame appended to `*out`.
void EncodeFrame(std::string_view payload, const TraceContext& trace,
                 std::uint64_t correlation, std::string* out);

/// Write one frame whose payload is `payload`'s pieces in order, in one
/// gathered write.
[[nodiscard]] Status WriteFrame(Socket* socket,
                                std::span<const std::string_view> payload,
                                Deadline deadline,
                                const TraceContext& trace = {},
                                std::uint64_t correlation = 0);
[[nodiscard]] inline Status WriteFrame(Socket* socket,
                                       std::string_view payload,
                                       Deadline deadline,
                                       const TraceContext& trace = {},
                                       std::uint64_t correlation = 0) {
  return WriteFrame(socket, std::span(&payload, 1), deadline, trace,
                    correlation);
}

/// Read one frame into `*payload`. Corruption on CRC mismatch or an
/// implausible length; otherwise forwards the socket's status (Unavailable
/// on peer close, Timeout past the deadline). The header's trace context
/// and correlation id are stored into `*trace` / `*correlation` when those
/// are non-null.
[[nodiscard]] Status ReadFrame(Socket* socket, std::string* payload,
                               Deadline deadline,
                               TraceContext* trace = nullptr,
                               std::uint64_t* correlation = nullptr);

// --- Incremental (buffer-based) parsing, for the epoll reactor --------------
//
// The reactor reads whatever bytes the socket has into a connection buffer
// and parses frames out of it without blocking: first the fixed header
// (ParseFrameHeader), then — once payload_len more bytes are available —
// the payload (CheckFramePayload).

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint32_t masked_crc = 0;
  TraceContext trace;
  std::uint64_t correlation = 0;
  /// CRC of the trace and correlation fields, chained into the payload's.
  std::uint32_t header_crc = 0;
};

/// Parse exactly kFrameHeaderBytes bytes. Corruption on an implausible
/// length.
[[nodiscard]] Status ParseFrameHeader(std::string_view header,
                                      FrameHeader* out);

/// Verify the frame CRC over the header fields and `payload_len` payload
/// bytes. Corruption on mismatch.
[[nodiscard]] Status CheckFramePayload(const FrameHeader& header,
                                       std::string_view payload);

}  // namespace strata::net
